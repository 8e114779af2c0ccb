// Page-grain event tracing.
//
// Attach a TraceBuffer to a Machine before `start()` and every page-level
// event (faults with their service source, swap-outs with their path,
// NACKs, victim reads) is recorded with its timestamp and latency. The
// buffer can be dumped to CSV for offline analysis; see
// examples/trace_analysis.cpp.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "sim/types.hpp"

namespace nwc::machine {

enum class TraceKind : std::uint8_t {
  kFaultDiskHit,    // page fault served from the disk controller cache
  kFaultDiskMiss,   // page fault paid a platter read
  kFaultRingHit,    // page fault served off the optical ring (victim read)
  kSwapOutDisk,     // dirty write-out via the standard protocol
  kSwapOutRing,     // dirty write-out staged on the ring
  kCleanEviction,   // frame freed without a write-out
  kNack,            // controller cache full response
};

const char* toString(TraceKind k);

struct TraceEvent {
  sim::Tick at = 0;       // completion time
  sim::Tick latency = 0;  // duration of the operation (0 for point events)
  sim::PageId page = sim::kNoPage;
  sim::NodeId node = sim::kNoNode;
  TraceKind kind = TraceKind::kFaultDiskHit;
};

/// Unbounded by default; construct with a capacity to get a ring buffer
/// that keeps the newest events and counts the dropped ones (mirrors
/// obs::EventTimeline's cap mode — long runs stay bounded in memory).
class TraceBuffer {
 public:
  TraceBuffer() = default;
  explicit TraceBuffer(std::size_t capacity) : capacity_(capacity) {}

  void record(const TraceEvent& e) {
    if (capacity_ != 0 && events_.size() == capacity_) {
      events_.pop_front();
      ++dropped_;
    }
    events_.push_back(e);
  }

  const std::deque<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

  /// 0 = unbounded.
  std::size_t capacity() const { return capacity_; }
  /// Oldest events evicted to stay within capacity.
  std::uint64_t dropped() const { return dropped_; }

  std::size_t count(TraceKind k) const;

  /// Writes "at,latency,page,node,kind" rows. Throws on I/O failure.
  void dumpCsv(const std::string& path) const;

 private:
  std::deque<TraceEvent> events_;
  std::size_t capacity_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Kernel reference-stream capture hook.
///
/// Attach one to a Machine before `start()` and every kernel-visible
/// operation is reported: region allocations, memory accesses (full
/// virtual address, so cache/TLB behavior can be reproduced exactly),
/// raw compute charges and barriers. The machine reports accesses and
/// regions itself; AppContext routes compute/barrier through the same
/// pointer. Detached cost is one pointer check per operation. The
/// repository benchmark's per-layer replay (perfbench/nwcbench.cpp)
/// records its reference window through this hook.
class RefRecorder {
 public:
  virtual ~RefRecorder() = default;

  /// A region was reserved at `base` (`bytes` is the requested, pre-
  /// page-rounding size — traces stay valid across page_bytes sweeps).
  virtual void onRegion(std::uint64_t base, std::uint64_t bytes,
                        const std::string& name) = 0;
  virtual void onAccess(int cpu, std::uint64_t vaddr, bool write) = 0;
  /// Raw cycles as passed to AppContext::compute, before
  /// compute_cycle_scale is applied.
  virtual void onCompute(int cpu, std::uint64_t raw_cycles) = 0;
  virtual void onBarrier(int cpu) = 0;
};

}  // namespace nwc::machine
