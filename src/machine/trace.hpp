// Page-eviction and reference-stream capture for the repository benchmark.
//
// Page events are observed through obs::EventTimeline (obs/timeline.hpp),
// which carries every fault, swap-out, NACK and clean eviction with its
// path. The TraceBuffer below is a bare append-only record of the same
// events that the benchmark's per-layer replay (perfbench/nwcbench.cpp)
// merges with its RefRecorder stream; it has no export of its own.
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
  kSwapOutDisk,     // dirty write-out by any other path (disk, log)
  kSwapOutRing,     // dirty write-out staged on the ring
  kCleanEviction,   // frame freed without a write-out
  kNack,            // controller cache full response
};

struct TraceEvent {
  sim::Tick at = 0;       // completion time
  sim::Tick latency = 0;  // duration of the operation (0 for point events)
  sim::PageId page = sim::kNoPage;
  sim::NodeId node = sim::kNoNode;
  TraceKind kind = TraceKind::kFaultDiskHit;
};

/// Append-only page-event record (see the file comment).
class TraceBuffer {
 public:
  void record(const TraceEvent& e) { events_.push_back(e); }

  const std::deque<TraceEvent>& events() const { return events_; }

 private:
  std::deque<TraceEvent> events_;
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
