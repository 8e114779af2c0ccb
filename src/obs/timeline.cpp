#include "obs/timeline.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <unordered_map>

#include "util/json.hpp"

namespace nwc::obs {

const char* toString(Layer l) {
  switch (l) {
    case Layer::kFault: return "fault";
    case Layer::kSwap: return "swap";
    case Layer::kRing: return "ring";
    case Layer::kMesh: return "mesh";
    case Layer::kDisk: return "disk";
    case Layer::kVm: return "vm";
    case Layer::kTlb: return "tlb";
    case Layer::kHealth: return "health";
    case Layer::kNumLayers: break;
  }
  return "?";
}

unsigned layerMaskFromString(const std::string& csv) {
  if (csv.empty() || csv == "all") return kAllLayers;
  unsigned mask = 0;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const auto comma = csv.find(',', pos);
    std::string item =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    // Trim surrounding spaces.
    while (!item.empty() && item.front() == ' ') item.erase(item.begin());
    while (!item.empty() && item.back() == ' ') item.pop_back();
    if (!item.empty()) {
      bool found = false;
      for (unsigned l = 0; l < static_cast<unsigned>(Layer::kNumLayers); ++l) {
        if (item == toString(static_cast<Layer>(l))) {
          mask |= 1u << l;
          found = true;
          break;
        }
      }
      if (!found) {
        throw std::invalid_argument("timeline: unknown layer \"" + item + "\"");
      }
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return mask;
}

EventTimeline::EventTimeline(unsigned layer_mask, std::size_t capacity)
    : mask_(layer_mask & kAllLayers), capacity_(capacity) {}

void EventTimeline::push(const TimelineEvent& e) {
  if (capacity_ != 0 && events_.size() >= capacity_) {
    ++dropped_by_layer_[static_cast<unsigned>(events_.front().layer)];
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(e);
}

std::uint64_t EventTimeline::span(Layer l, const char* name, sim::Tick start,
                                  sim::Tick duration, sim::NodeId node,
                                  sim::PageId page, std::uint64_t parent,
                                  std::uint64_t id) {
  if (!enabled(l)) return 0;
  TimelineEvent e;
  e.start = start;
  e.duration = duration;
  e.name = name;
  e.id = id != 0 ? id : next_id_++;
  e.parent = parent;
  e.page = page;
  e.node = node;
  e.layer = l;
  e.shape = EventShape::kSpan;
  push(e);
  return e.id;
}

std::uint64_t EventTimeline::asyncSpan(Layer l, const char* name, sim::Tick start,
                                       sim::Tick duration, sim::NodeId node,
                                       sim::PageId page) {
  if (!enabled(l)) return 0;
  TimelineEvent e;
  e.start = start;
  e.duration = duration;
  e.name = name;
  e.id = next_id_++;
  e.page = page;
  e.node = node;
  e.layer = l;
  e.shape = EventShape::kAsyncSpan;
  push(e);
  return e.id;
}

void EventTimeline::instant(Layer l, const char* name, sim::Tick at,
                            sim::NodeId node, sim::PageId page) {
  if (!enabled(l)) return;
  TimelineEvent e;
  e.start = at;
  e.name = name;
  e.page = page;
  e.node = node;
  e.layer = l;
  e.shape = EventShape::kInstant;
  push(e);
}

void EventTimeline::counterSample(Layer l, const char* name, sim::Tick at,
                                  double value) {
  if (!enabled(l)) return;
  TimelineEvent e;
  e.start = at;
  e.value = value;
  e.name = name;
  e.layer = l;
  e.shape = EventShape::kCounter;
  push(e);
}

std::size_t EventTimeline::count(Layer l) const {
  std::size_t n = 0;
  for (const TimelineEvent& e : events_) {
    if (e.layer == l) ++n;
  }
  return n;
}

void EventTimeline::clear() {
  events_.clear();
  dropped_ = 0;
  dropped_by_layer_.fill(0);
  next_id_ = 1;
}

namespace {

std::string fmtMicros(sim::Tick ticks, double pcycle_ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ticks) * pcycle_ns / 1000.0);
  return buf;
}

// One track per (node, layer); node -1 (machine-wide) maps to slot 0.
int trackId(sim::NodeId node, Layer layer) {
  return (node + 1) * static_cast<int>(Layer::kNumLayers) +
         static_cast<int>(layer) + 1;  // tids start at 1: tid 0 renders oddly
}

}  // namespace

std::string EventTimeline::chromeTraceJson(double pcycle_ns) const {
  // A child span renders nested inside its parent only when both share a
  // track, so resolve each span's track to its outermost ancestor's.
  std::unordered_map<std::uint64_t, const TimelineEvent*> by_id;
  for (const TimelineEvent& e : events_) {
    if (e.id != 0) by_id.emplace(e.id, &e);
  }
  auto resolveTrack = [&](const TimelineEvent& e) {
    const TimelineEvent* cur = &e;
    for (int depth = 0; depth < 8 && cur->parent != 0; ++depth) {
      const auto it = by_id.find(cur->parent);
      if (it == by_id.end()) break;  // parent fell out of the ring buffer
      cur = it->second;
    }
    return trackId(cur->node, cur->layer);
  };

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&out, &first](const std::string& obj) {
    if (!first) out += ',';
    first = false;
    out += obj;
  };

  emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
       "\"args\":{\"name\":\"nwcache\"}}");

  // Thread-name metadata for every track we are about to use.
  std::map<int, std::string> track_names;
  for (const TimelineEvent& e : events_) {
    if (e.shape == EventShape::kCounter) continue;  // counters are pid-global
    const int tid = e.shape == EventShape::kSpan ? resolveTrack(e)
                                                 : trackId(e.node, e.layer);
    if (track_names.count(tid)) continue;
    // Name the track after the event that owns it (its root for children).
    const TimelineEvent* root = &e;
    if (e.shape == EventShape::kSpan) {
      for (int depth = 0; depth < 8 && root->parent != 0; ++depth) {
        const auto it = by_id.find(root->parent);
        if (it == by_id.end()) break;
        root = it->second;
      }
    }
    const std::string node_part =
        root->node == sim::kNoNode ? "machine" : "node" + std::to_string(root->node);
    track_names.emplace(tid, node_part + " " + toString(root->layer));
  }
  for (const auto& [tid, name] : track_names) {
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
         std::to_string(tid) + ",\"args\":{\"name\":\"" + util::jsonEscape(name) +
         "\"}}");
  }

  for (const TimelineEvent& e : events_) {
    const std::string name = util::jsonEscape(e.name);
    const std::string cat = toString(e.layer);
    const std::string ts = fmtMicros(e.start, pcycle_ns);
    std::string args = "{\"node\":" + std::to_string(e.node);
    if (e.page != sim::kNoPage) args += ",\"page\":" + std::to_string(e.page);
    args += "}";
    switch (e.shape) {
      case EventShape::kSpan:
        emit("{\"name\":\"" + name + "\",\"cat\":\"" + cat +
             "\",\"ph\":\"X\",\"ts\":" + ts +
             ",\"dur\":" + fmtMicros(e.duration, pcycle_ns) +
             ",\"pid\":0,\"tid\":" + std::to_string(resolveTrack(e)) +
             ",\"args\":" + args + "}");
        break;
      case EventShape::kAsyncSpan: {
        const std::string common = "\"name\":\"" + name + "\",\"cat\":\"" + cat +
                                   "\",\"id\":" + std::to_string(e.id) +
                                   ",\"pid\":0,\"tid\":" +
                                   std::to_string(trackId(e.node, e.layer));
        emit("{" + common + ",\"ph\":\"b\",\"ts\":" + ts + ",\"args\":" + args + "}");
        emit("{" + common + ",\"ph\":\"e\",\"ts\":" +
             fmtMicros(e.start + e.duration, pcycle_ns) + ",\"args\":{}}");
        break;
      }
      case EventShape::kInstant:
        emit("{\"name\":\"" + name + "\",\"cat\":\"" + cat +
             "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + ts +
             ",\"pid\":0,\"tid\":" + std::to_string(trackId(e.node, e.layer)) +
             ",\"args\":" + args + "}");
        break;
      case EventShape::kCounter: {
        char val[48];
        std::snprintf(val, sizeof(val), "%.17g", e.value);
        emit("{\"name\":\"" + name + "\",\"cat\":\"" + cat +
             "\",\"ph\":\"C\",\"ts\":" + ts + ",\"pid\":0,\"args\":{\"value\":" +
             val + "}}");
        break;
      }
    }
  }

  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

void EventTimeline::writeChromeTrace(const std::string& path, double pcycle_ns) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("timeline: cannot open " + path);
  out << chromeTraceJson(pcycle_ns) << "\n";
  if (!out) throw std::runtime_error("timeline: write failed for " + path);
}

}  // namespace nwc::obs
