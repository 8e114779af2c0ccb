// Periodic in-run sampler: continuous time-resolved telemetry.
//
// The end-of-run metrics catalog answers "how much, in total"; the sampler
// answers "when". On a configurable simulated-tick interval the machine
// snapshots a declared, versioned set of tracks (occupancy gauges plus the
// hot cumulative counters) into time-weighted `sim::TimeSeries`, reusing its
// integral-preserving decimation so arbitrarily long runs stay bounded. Each
// consecutive pair of samples forms a window handed to the online
// `HealthMonitor` (NACK storms, destage stalls, starvation, retune livelock,
// ring pegging). With an event timeline attached, each sample's occupancy
// gauges land there as counter samples and each health onset/clear as an
// instant: the timeline has no other source of counter tracks.
//
// The whole series exports as a `nwc-timeseries-v1` JSON artifact —
// deterministic bytes: samples are taken at simulated ticks, so
// the export is identical at any `--jobs=` value. Like every obs sink, the
// sampler is pay-for-use: a machine without one attached spends a single
// pointer check per run (the daemon is never spawned).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "obs/health.hpp"
#include "sim/timeseries.hpp"
#include "sim/types.hpp"

namespace nwc::obs {

class EventTimeline;
class MetricsRegistry;

/// The versioned track catalog (nwc-timeseries-v1). Gauges snapshot state at
/// the sample tick; the rest are cumulative counters (monotone ramps whose
/// window deltas feed the health detectors).
enum class Track : unsigned {
  kFreeFrames = 0,     // vm.free_frames (gauge)
  kSwapsInFlight,      // vm.swaps_in_flight (gauge)
  kRingStaged,         // backend staged pages: ring / log disk (gauge)
  kDirtySlots,         // dirty controller-cache slots across disks (gauge)
  kFaults,             // cumulative page faults
  kSwapOuts,           // cumulative swap-outs issued
  kNacks,              // cumulative staging-cache-full NACKs
  kCleanEvictions,     // cumulative dropped-clean evictions
  kDestageWrites,      // cumulative destage platter writes
  kDestageStallTicks,  // cumulative write-blocked-on-destage ticks
  kRetunes,            // cumulative receiver retunes (ring systems)
  kNumTracks,
};

inline constexpr std::size_t kNumTracks = static_cast<std::size_t>(Track::kNumTracks);

const char* toString(Track t);
bool isCumulative(Track t);

/// One snapshot of every track, filled by Machine::collectSample.
struct SampleFrame {
  std::array<double, kNumTracks> v{};

  double& operator[](Track t) { return v[static_cast<unsigned>(t)]; }
  double operator[](Track t) const { return v[static_cast<unsigned>(t)]; }
};

struct SamplerConfig {
  sim::Tick interval = 50'000;       // pcycles between samples
  std::size_t max_points = 1 << 14;  // per-track cap before decimation
  HealthThresholds thresholds;
};

class Sampler {
 public:
  Sampler(const SamplerConfig& cfg, const HealthContext& ctx);

  sim::Tick interval() const { return cfg_.interval; }

  /// Mirrors every sample's gauge tracks as timeline counter samples on
  /// their layer (vm, ring, disk), and health onset/clear transitions as
  /// `health.*` instants (Layer::kHealth). Optional; pass nullptr to detach.
  void attachTimeline(EventTimeline* tl) { timeline_ = tl; }

  /// Appends one frame at tick `t` (strictly after the previous sample),
  /// mirrors its gauges onto the attached timeline, and runs the health
  /// detectors over the window since the last frame.
  void record(sim::Tick t, const SampleFrame& f);

  std::size_t samples() const { return samples_; }
  const sim::TimeSeries& track(Track t) const {
    return tracks_[static_cast<unsigned>(t)];
  }
  const HealthMonitor& health() const { return health_; }

  /// {"schema":"nwc-timeseries-v1",...} — tracks in catalog order with
  /// min/max/mean summaries and [tick,value] points, plus the health section
  /// (per-detector counts, bounded event log, verdict). Deterministic bytes.
  std::string toJson() const;

  void writeJson(const std::string& path) const;  // throws on I/O failure

  /// `sampler.samples` / `sampler.interval_pcycles` plus the health catalog.
  void publishMetrics(MetricsRegistry& reg) const;

 private:
  SamplerConfig cfg_;
  std::array<sim::TimeSeries, kNumTracks> tracks_;
  HealthMonitor health_;
  EventTimeline* timeline_ = nullptr;
  SampleFrame prev_{};
  sim::Tick prev_t_ = 0;
  std::size_t samples_ = 0;
};

}  // namespace nwc::obs
