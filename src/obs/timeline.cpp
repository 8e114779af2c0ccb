#include "obs/timeline.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

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

// Simulated pcycles as the format's microseconds, "%.3f".
struct Micros {
  char text[48];
  Micros(sim::Tick ticks, double pcycle_ns) {
    std::snprintf(text, sizeof(text), "%.3f",
                  static_cast<double>(ticks) * pcycle_ns / 1000.0);
  }
};

// Renders into one reused buffer and hands it to the stream in large
// writes: a trace of millions of events costs no per-event allocation.
class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& out) : out_(out) { buf_.reserve(kFlushBytes + 4096); }

  TraceWriter& operator<<(std::string_view s) {
    buf_ += s;
    if (buf_.size() >= kFlushBytes) flush();
    return *this;
  }
  TraceWriter& operator<<(const Micros& m) { return *this << std::string_view(m.text); }
  template <std::integral T>
  TraceWriter& operator<<(T v) {
    char digits[24];
    const auto end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
    return *this << std::string_view(digits, static_cast<std::size_t>(end - digits));
  }

  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

 private:
  static constexpr std::size_t kFlushBytes = 1 << 16;
  std::ostream& out_;
  std::string buf_;
};

// One track per (node, layer); node -1 (machine-wide) maps to slot 0.
int trackId(sim::NodeId node, Layer layer) {
  return (node + 1) * static_cast<int>(Layer::kNumLayers) +
         static_cast<int>(layer) + 1;  // tids start at 1: tid 0 renders oddly
}

}  // namespace

void EventTimeline::writeChromeTrace(std::ostream& stream, double pcycle_ns) const {
  // A child span renders nested inside its parent only when both share a
  // track, so resolve each span's track to its outermost ancestor's.
  // Spans by id, sorted once: one allocation rather than one per span.
  std::vector<std::pair<std::uint64_t, const TimelineEvent*>> by_id;
  for (const TimelineEvent& e : events_) {
    if (e.id != 0) by_id.emplace_back(e.id, &e);
  }
  std::sort(by_id.begin(), by_id.end());
  auto rootOf = [&](const TimelineEvent& e) {
    const TimelineEvent* cur = &e;
    for (int depth = 0; depth < 8 && cur->parent != 0; ++depth) {
      const auto it = std::lower_bound(
          by_id.begin(), by_id.end(), cur->parent,
          [](const auto& entry, std::uint64_t id) { return entry.first < id; });
      // The parent fell out of the ring buffer.
      if (it == by_id.end() || it->first != cur->parent) break;
      cur = it->second;
    }
    return cur;
  };
  auto resolveTrack = [&](const TimelineEvent& e) {
    const TimelineEvent* root = rootOf(e);
    return trackId(root->node, root->layer);
  };

  // Event names are static strings drawn from a small set: escape each once.
  std::unordered_map<const char*, std::string> escaped;
  auto name = [&](const char* n) -> const std::string& {
    auto it = escaped.find(n);
    if (it == escaped.end()) it = escaped.emplace(n, util::jsonEscape(n)).first;
    return it->second;
  };

  TraceWriter out(stream);
  out << "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
         "\"args\":{\"name\":\"nwcache\"}}";

  // Thread-name metadata for every track we are about to use, named after
  // the event that owns it (its root for children).
  std::map<int, std::string> track_names;
  for (const TimelineEvent& e : events_) {
    if (e.shape == EventShape::kCounter) continue;  // counters are pid-global
    const TimelineEvent* root = e.shape == EventShape::kSpan ? rootOf(e) : &e;
    const int tid = trackId(root->node, root->layer);
    if (track_names.count(tid)) continue;
    const std::string node_part =
        root->node == sim::kNoNode ? "machine" : "node" + std::to_string(root->node);
    track_names.emplace(tid, node_part + " " + toString(root->layer));
  }
  for (const auto& [tid, track] : track_names) {
    out << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << util::jsonEscape(track) << "\"}}";
  }

  for (const TimelineEvent& e : events_) {
    const Micros ts(e.start, pcycle_ns);
    auto head = [&] {
      out << ",{\"name\":\"" << name(e.name) << "\",\"cat\":\"" << toString(e.layer)
          << "\",";
    };
    auto args = [&] {
      out << ",\"args\":{\"node\":" << e.node;
      if (e.page != sim::kNoPage) out << ",\"page\":" << e.page;
      out << "}}";
    };
    switch (e.shape) {
      case EventShape::kSpan:
        head();
        out << "\"ph\":\"X\",\"ts\":" << ts << ",\"dur\":" << Micros(e.duration, pcycle_ns)
            << ",\"pid\":0,\"tid\":" << resolveTrack(e);
        args();
        break;
      case EventShape::kAsyncSpan: {
        const int tid = trackId(e.node, e.layer);
        head();
        out << "\"id\":" << e.id << ",\"pid\":0,\"tid\":" << tid
            << ",\"ph\":\"b\",\"ts\":" << ts;
        args();
        head();
        out << "\"id\":" << e.id << ",\"pid\":0,\"tid\":" << tid
            << ",\"ph\":\"e\",\"ts\":" << Micros(e.start + e.duration, pcycle_ns)
            << ",\"args\":{}}";
        break;
      }
      case EventShape::kInstant:
        head();
        out << "\"ph\":\"i\",\"s\":\"t\",\"ts\":" << ts
            << ",\"pid\":0,\"tid\":" << trackId(e.node, e.layer);
        args();
        break;
      case EventShape::kCounter: {
        char val[48];
        std::snprintf(val, sizeof(val), "%.17g", e.value);
        head();
        out << "\"ph\":\"C\",\"ts\":" << ts << ",\"pid\":0,\"args\":{\"value\":" << val
            << "}}";
        break;
      }
    }
  }

  out << "],\"displayTimeUnit\":\"ns\"}\n";
  out.flush();
}

}  // namespace nwc::obs
