// Cross-layer event timeline: one time-ordered stream of spans, instants
// and counter samples from every simulator layer (fault service, swap-outs,
// optical ring, mesh, disks, VM occupancy, TLB), exportable as Chrome
// trace-event JSON that Perfetto / chrome://tracing load directly.
//
// It is the one stream of page events: every fault, swap-out (named by the
// path it took), NACK and clean eviction is recorded here. Counter samples
// come only from an attached obs::Sampler, once per sample interval.
// Recording is pay-per-layer: each layer has an enable bit and a disabled
// layer costs one branch; a bounded ring-buffer mode keeps paper-scale runs
// cheap by retaining only the newest events.
//
// Span nesting: a parent span reserves its id up front
// (`reserveSpanId()`), records its children with `parent=` that id, then
// records itself with the reserved id. The Chrome export places a child on
// its parent's track, so fault-service spans render with their ring/disk
// sub-operations nested inside.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>

#include "sim/types.hpp"

namespace nwc::obs {

enum class Layer : unsigned {
  kFault = 0,  // page-fault service spans (and their fetch children)
  kSwap,       // swap-out spans, NACKs, clean evictions
  kRing,       // optical ring: transmits, drains, occupancy
  kMesh,       // mesh message spans (high volume!)
  kDisk,       // disk-arm operations, controller-cache occupancy
  kVm,         // machine-wide occupancy counters (free frames, in-flight)
  kTlb,        // shootdowns
  kHealth,     // online health-detector onsets/clears (obs/health.hpp)
  kNumLayers,
};

const char* toString(Layer l);

inline constexpr unsigned kAllLayers =
    (1u << static_cast<unsigned>(Layer::kNumLayers)) - 1;

inline constexpr unsigned layerBit(Layer l) { return 1u << static_cast<unsigned>(l); }

/// Parses "ring,disk,fault" (or "all") into an enable mask; throws
/// std::invalid_argument on an unknown layer name.
unsigned layerMaskFromString(const std::string& csv);

/// How an event renders in the Chrome trace.
enum class EventShape : std::uint8_t {
  kSpan,       // duration slice on a synchronous track ("X")
  kAsyncSpan,  // may overlap others of its kind ("b"/"e" pair)
  kInstant,    // point event ("i")
  kCounter,    // sampled value ("C")
};

struct TimelineEvent {
  sim::Tick start = 0;
  sim::Tick duration = 0;     // 0 for instants/counters
  double value = 0.0;         // counters only
  const char* name = "";      // static-lifetime string
  std::uint64_t id = 0;       // span id (0 = none)
  std::uint64_t parent = 0;   // parent span id (0 = top-level)
  sim::PageId page = sim::kNoPage;
  sim::NodeId node = sim::kNoNode;
  Layer layer = Layer::kFault;
  EventShape shape = EventShape::kInstant;
};

class EventTimeline {
 public:
  /// `layer_mask` selects the recorded layers; `capacity` > 0 bounds the
  /// buffer (ring mode: oldest events are discarded, counted in dropped()).
  explicit EventTimeline(unsigned layer_mask = kAllLayers, std::size_t capacity = 0);

  bool enabled(Layer l) const { return (mask_ & layerBit(l)) != 0; }
  unsigned layerMask() const { return mask_; }

  /// Allocates a span id before the span completes, for parenting children.
  std::uint64_t reserveSpanId() { return next_id_++; }

  /// Records a completed span [start, start+duration]. Pass `id` from
  /// reserveSpanId() when children reference it, 0 to auto-assign.
  /// Returns the span's id (0 if the layer is disabled).
  std::uint64_t span(Layer l, const char* name, sim::Tick start, sim::Tick duration,
                     sim::NodeId node, sim::PageId page, std::uint64_t parent = 0,
                     std::uint64_t id = 0);

  /// Like span(), for operations that may overlap on one node (swap-outs,
  /// mesh messages); rendered as Chrome async events.
  std::uint64_t asyncSpan(Layer l, const char* name, sim::Tick start,
                          sim::Tick duration, sim::NodeId node, sim::PageId page);

  void instant(Layer l, const char* name, sim::Tick at, sim::NodeId node,
               sim::PageId page);

  void counterSample(Layer l, const char* name, sim::Tick at, double value);

  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  std::size_t capacity() const { return capacity_; }  // 0 = unbounded
  std::uint64_t dropped() const { return dropped_; }
  /// Ring-mode drops attributed to the evicted event's layer, so users learn
  /// which `--timeline-layers=` to trim when the buffer overflows.
  std::uint64_t droppedByLayer(Layer l) const {
    return dropped_by_layer_[static_cast<unsigned>(l)];
  }
  const std::deque<TimelineEvent>& events() const { return events_; }
  std::size_t count(Layer l) const;
  void clear();

  /// Writes the Chrome trace-event JSON ("traceEvents" array format) and a
  /// final newline, event by event. `pcycle_ns` converts simulated pcycles
  /// to the format's microseconds.
  void writeChromeTrace(std::ostream& out, double pcycle_ns = 5.0) const;

 private:
  void push(const TimelineEvent& e);

  unsigned mask_;
  std::size_t capacity_;
  std::uint64_t next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::array<std::uint64_t, static_cast<unsigned>(Layer::kNumLayers)>
      dropped_by_layer_{};
  std::deque<TimelineEvent> events_;
};

}  // namespace nwc::obs
