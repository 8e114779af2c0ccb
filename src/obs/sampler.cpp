#include "obs/sampler.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/timeline.hpp"
#include "util/json.hpp"

namespace nwc::obs {

namespace {

// Shortest round-trip formatting so equal doubles export as equal bytes.
std::string fmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Static-lifetime instant names, indexed by Detector (the timeline stores
// `const char*`, not copies).
constexpr const char* kOnsetName[] = {
    "health.nack_storm",      "health.destage_stall", "health.free_frames",
    "health.retune_livelock", "health.ring_pegged",
};
constexpr const char* kClearName[] = {
    "health.nack_storm.clear",      "health.destage_stall.clear",
    "health.free_frames.clear",     "health.retune_livelock.clear",
    "health.ring_pegged.clear",
};
static_assert(sizeof(kOnsetName) / sizeof(kOnsetName[0]) ==
              static_cast<unsigned>(Detector::kNumDetectors));
static_assert(sizeof(kClearName) / sizeof(kClearName[0]) ==
              static_cast<unsigned>(Detector::kNumDetectors));

// The timeline layer that carries each mirrored gauge's counter track.
Layer layerOf(Track g) {
  switch (g) {
    case Track::kRingStaged: return Layer::kRing;
    case Track::kDirtySlots: return Layer::kDisk;
    default: return Layer::kVm;
  }
}

}  // namespace

const char* toString(Track t) {
  switch (t) {
    case Track::kFreeFrames: return "vm.free_frames";
    case Track::kSwapsInFlight: return "vm.swaps_in_flight";
    case Track::kRingStaged: return "ring.staged_pages";
    case Track::kDirtySlots: return "disk.dirty_slots";
    case Track::kFaults: return "fault.count";
    case Track::kSwapOuts: return "swap.outs";
    case Track::kNacks: return "swap.nacks";
    case Track::kCleanEvictions: return "swap.clean_evictions";
    case Track::kDestageWrites: return "destage.writes";
    case Track::kDestageStallTicks: return "destage.stall_ticks";
    case Track::kRetunes: return "ring.receiver.retunes";
    case Track::kNumTracks: break;
  }
  return "?";
}

bool isCumulative(Track t) {
  switch (t) {
    case Track::kFreeFrames:
    case Track::kSwapsInFlight:
    case Track::kRingStaged:
    case Track::kDirtySlots:
      return false;
    default:
      return true;
  }
}

Sampler::Sampler(const SamplerConfig& cfg, const HealthContext& ctx)
    : cfg_(cfg), health_(cfg.thresholds, ctx) {
  if (cfg_.interval <= 0) {
    throw std::invalid_argument("sampler: interval must be positive");
  }
  tracks_.fill(sim::TimeSeries(cfg_.max_points));
}

void Sampler::record(sim::Tick t, const SampleFrame& f) {
  for (std::size_t i = 0; i < kNumTracks; ++i) {
    tracks_[i].sample(t, f.v[i]);
  }
  if (timeline_ != nullptr) {
    for (std::size_t i = 0; i < kNumTracks; ++i) {
      const Track g = static_cast<Track>(i);
      if (!isCumulative(g)) timeline_->counterSample(layerOf(g), toString(g), t, f.v[i]);
    }
  }
  if (samples_ > 0 && t > prev_t_) {
    HealthMonitor::Window w;
    w.t0 = prev_t_;
    w.t1 = t;
    w.nacks = f[Track::kNacks] - prev_[Track::kNacks];
    w.stall_ticks = f[Track::kDestageStallTicks] - prev_[Track::kDestageStallTicks];
    w.retunes = f[Track::kRetunes] - prev_[Track::kRetunes];
    w.free_frames = f[Track::kFreeFrames];
    w.ring_staged = f[Track::kRingStaged];
    const std::size_t appended = health_.observe(w);
    if (timeline_ != nullptr && appended > 0) {
      const auto& events = health_.events();
      for (std::size_t i = events.size() - appended; i < events.size(); ++i) {
        const HealthEvent& e = events[i];
        const unsigned d = static_cast<unsigned>(e.detector);
        timeline_->instant(Layer::kHealth, e.onset ? kOnsetName[d] : kClearName[d],
                           e.at, sim::kNoNode, sim::kNoPage);
      }
    }
  }
  prev_ = f;
  prev_t_ = t;
  ++samples_;
}

std::string Sampler::toJson() const {
  util::JsonObject tracks;
  for (std::size_t i = 0; i < kNumTracks; ++i) {
    const Track t = static_cast<Track>(i);
    const sim::TimeSeries& ts = tracks_[i];
    util::JsonObject o;
    o.add("kind", isCumulative(t) ? "cumulative" : "gauge");
    o.add("min", ts.minValue());
    o.add("max", ts.maxValue());
    o.add("mean", ts.timeWeightedMean());
    std::string pts = "[";
    bool first = true;
    for (const auto& [tick, v] : ts.points()) {
      if (!first) pts += ',';
      first = false;
      pts += '[';
      pts += std::to_string(tick);
      pts += ',';
      pts += fmtDouble(v);
      pts += ']';
    }
    pts += ']';
    o.addRaw("points", pts);
    tracks.addRaw(toString(t), o.str());
  }

  util::JsonObject detectors;
  for (unsigned d = 0; d < static_cast<unsigned>(Detector::kNumDetectors); ++d) {
    const HealthMonitor::DetectorState& s = health_.state(static_cast<Detector>(d));
    util::JsonObject o;
    o.add("trips", s.trips).add("windows", s.windows).add("worst", s.worst);
    detectors.addRaw(toString(static_cast<Detector>(d)), o.str());
  }
  std::vector<std::string> events;
  for (const HealthEvent& e : health_.events()) {
    util::JsonObject o;
    o.add("t", static_cast<std::uint64_t>(e.at))
        .add("detector", toString(e.detector))
        .add("kind", e.onset ? "onset" : "clear")
        .add("value", e.value);
    events.push_back(o.str());
  }
  util::JsonObject health;
  health.add("verdict", health_.verdict())
      .add("trips", health_.totalTrips())
      .add("windows", health_.windowsObserved())
      .addRaw("detectors", detectors.str())
      .addRaw("events", util::jsonArray(events))
      .add("events_dropped", health_.eventsDropped());

  util::JsonObject root;
  root.add("schema", "nwc-timeseries-v1")
      .add("interval_pcycles", static_cast<std::uint64_t>(cfg_.interval))
      .add("samples", static_cast<std::uint64_t>(samples_))
      .addRaw("tracks", tracks.str())
      .addRaw("health", health.str());
  return root.str();
}

namespace {

void writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("sampler: cannot open " + path);
  out << content;
  if (!out) throw std::runtime_error("sampler: write failed for " + path);
}

}  // namespace

void Sampler::writeJson(const std::string& path) const {
  writeFile(path, toJson() + "\n");
}

void Sampler::publishMetrics(MetricsRegistry& reg) const {
  reg.counter("sampler.samples", samples_);
  reg.counter("sampler.interval_pcycles", static_cast<std::uint64_t>(cfg_.interval));
  health_.publishMetrics(reg);
}

}  // namespace nwc::obs
