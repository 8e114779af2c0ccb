// Run metrics: the paper's execution-time breakdown (Figures 3/4) and the
// per-benefit statistics (Tables 3-8).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/attribution.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace nwc::machine {

/// Per-processor stall breakdown. "Other" (busy + cache misses + sync) is
/// derived: finish_time - (nofree + transit + fault + tlb).
struct CpuBreakdown {
  sim::Tick nofree = 0;   // stalled: no free page frames
  sim::Tick transit = 0;  // waiting for another node's in-flight fetch
  sim::Tick fault = 0;    // page-fault service (this cpu initiated)
  sim::Tick tlb = 0;      // TLB misses + shootdowns + interrupts
  sim::Tick finish = 0;   // when this cpu's work ended
  std::uint64_t accesses = 0;

  sim::Tick other() const {
    const sim::Tick stalls = nofree + transit + fault + tlb;
    return finish > stalls ? finish - stalls : 0;
  }
};

class Metrics {
 public:
  explicit Metrics(int num_cpus) : cpu_(static_cast<std::size_t>(num_cpus)) {}

  CpuBreakdown& cpu(int c) { return cpu_[static_cast<std::size_t>(c)]; }
  const CpuBreakdown& cpu(int c) const { return cpu_[static_cast<std::size_t>(c)]; }
  int numCpus() const { return static_cast<int>(cpu_.size()); }

  // --- table statistics -------------------------------------------------
  /// Per completed (dirty) swap-out: decision -> frame reusable. (Tables 3/4)
  sim::Accumulator swap_out_ticks;
  /// Pages per physical disk write operation. (Tables 5/6)
  sim::Accumulator write_combining;
  /// Page-read faults served off the optical ring. (Table 7)
  sim::RatioCounter ring_read_hits;
  /// Full fault latency when the disk controller cache hit. (Table 8)
  sim::Accumulator disk_cache_hit_fault_ticks;
  /// All fault latencies.
  sim::Accumulator fault_ticks;
  sim::Log2Histogram fault_hist;
  sim::Log2Histogram swap_out_hist;
  /// Pages per destage operation (write-behind batches + DCD log copies).
  sim::Log2Histogram destage_batch_size;

  /// Per-stage critical-path attribution (queue vs service ticks for every
  /// fault, swap-out and shootdown, keyed by outcome). Always on; adds no
  /// simulated events and never perturbs timing.
  obs::AttrAccountant attr;

  // --- counters -----------------------------------------------------------
  std::uint64_t faults = 0;
  std::uint64_t transit_waits = 0;
  std::uint64_t swap_outs = 0;        // dirty page write-outs started
  std::uint64_t clean_evictions = 0;  // frames freed without a write-out
  std::uint64_t nacks = 0;            // disk cache full responses
  std::uint64_t shootdowns = 0;
  std::uint64_t disk_cache_hits = 0;
  std::uint64_t disk_cache_misses = 0;
  std::uint64_t ring_aborted_requests = 0;  // optimal-mode hits that still
                                            // burned network/disk resources
  std::uint64_t destage_writes = 0;         // destage operations issued
  std::uint64_t destage_pages = 0;          // pages those operations moved
  sim::Tick destage_stall_ticks = 0;        // ticks destage ops queued for arms
  // Block-stream front end (Machine::blockAccess): storage requests served
  // through the swap/fault/destage datapath without the processor caches.
  std::uint64_t block_reads = 0;
  std::uint64_t block_writes = 0;

  // --- aggregates ---------------------------------------------------------
  sim::Tick totalNoFree() const;
  sim::Tick totalTransit() const;
  sim::Tick totalFault() const;
  sim::Tick totalTlb() const;
  sim::Tick totalOther() const;

  /// Longest per-cpu finish time = the run's execution time.
  sim::Tick executionTime() const;

  std::uint64_t totalAccesses() const;

 private:
  std::vector<CpuBreakdown> cpu_;
};

}  // namespace nwc::machine
