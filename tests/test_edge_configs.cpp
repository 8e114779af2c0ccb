// Edge configurations: degenerate machine shapes must stay live and
// consistent (failure-injection-style robustness tests).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "apps/runner.hpp"
#include "machine/machine.hpp"
#include "nwcache/interface.hpp"
#include "nwcache/optical_ring.hpp"

namespace nwc::machine {
namespace {

using sim::PageId;
using sim::Task;

Task<> sweepWorkload(Machine& m, int cpu, PageId npages, bool write) {
  for (int rep = 0; rep < 3; ++rep) {
    for (PageId p = cpu; p < npages; p += m.config().num_nodes) {
      co_await m.access(cpu, static_cast<std::uint64_t>(p) * m.config().page_bytes,
                        write);
      m.compute(cpu, 20);
    }
  }
  co_await m.fence(cpu);
  m.cpuDone(cpu);
}

void runAll(Machine& m, PageId npages, bool write) {
  m.allocRegion(static_cast<std::uint64_t>(npages) * m.config().page_bytes);
  m.start();
  for (int cpu = 0; cpu < m.config().num_nodes; ++cpu) {
    m.engine().spawn(sweepWorkload(m, cpu, npages, write));
  }
  m.engine().run();
  for (int cpu = 0; cpu < m.config().num_nodes; ++cpu) {
    ASSERT_GT(m.metrics().cpu(cpu).finish, 0u) << "cpu " << cpu << " stuck";
  }
  ASSERT_EQ(m.checkInvariants(), "");
}

TEST(EdgeConfig, SingleIoNode) {
  MachineConfig c;
  c.withSystem(SystemKind::kStandard, Prefetch::kNaive);
  c.num_io_nodes = 1;
  c.memory_per_node = 32 * 1024;
  Machine m(c);
  runAll(m, 64, true);
  EXPECT_GT(m.metrics().faults, 0u);
}

TEST(EdgeConfig, AllNodesIoEnabled) {
  MachineConfig c;
  c.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
  c.num_io_nodes = 8;
  c.memory_per_node = 32 * 1024;
  c.min_free_frames = 2;
  Machine m(c);
  runAll(m, 96, true);
}

TEST(EdgeConfig, TwoNodeMachine) {
  MachineConfig c;
  c.withSystem(SystemKind::kNWCache, Prefetch::kNaive);
  c.num_nodes = 2;
  c.num_io_nodes = 1;
  c.ring_channels = 2;
  c.memory_per_node = 32 * 1024;
  c.min_free_frames = 2;
  Machine m(c);
  runAll(m, 48, true);
}

TEST(EdgeConfig, SixteenNodeMachine) {
  MachineConfig c;
  c.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
  c.num_nodes = 16;
  c.num_io_nodes = 4;
  c.ring_channels = 16;
  c.memory_per_node = 32 * 1024;
  c.min_free_frames = 2;
  Machine m(c);
  runAll(m, 192, true);
}

TEST(EdgeConfig, OnePageRingChannels) {
  MachineConfig c;
  c.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
  c.ring_channel_bytes = c.page_bytes;  // one slot per channel
  c.memory_per_node = 32 * 1024;
  c.min_free_frames = 2;
  Machine m(c);
  runAll(m, 96, true);
  for (int ch = 0; ch < c.ring_channels; ++ch) {
    EXPECT_LE(m.ring()->peakOccupancy(ch), 1);
  }
}

TEST(EdgeConfig, SingleSlotDiskCache) {
  MachineConfig c;
  c.withSystem(SystemKind::kStandard, Prefetch::kNaive);
  c.disk_cache_bytes = c.page_bytes;  // 1 slot: constant NACK pressure
  c.memory_per_node = 32 * 1024;
  c.min_free_frames = 2;
  Machine m(c);
  runAll(m, 64, true);
  if (m.metrics().write_combining.count() > 0) {
    EXPECT_DOUBLE_EQ(m.metrics().write_combining.max(), 1.0);
  }
}

TEST(EdgeConfig, MinimalFreeReserve) {
  MachineConfig c;
  c.withSystem(SystemKind::kStandard, Prefetch::kOptimal);
  c.memory_per_node = 32 * 1024;
  c.min_free_frames = 1;
  Machine m(c);
  runAll(m, 64, true);
}

TEST(EdgeConfig, ReserveNearlyWholeMemory) {
  MachineConfig c;
  c.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
  c.memory_per_node = 32 * 1024;  // 8 frames
  c.min_free_frames = 6;          // only 2 usable working frames
  Machine m(c);
  runAll(m, 48, true);
}

TEST(EdgeConfig, ReadOnlyWorkloadOnRingMachineNeverUsesRing) {
  MachineConfig c;
  c.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
  c.memory_per_node = 32 * 1024;
  c.min_free_frames = 2;
  Machine m(c);
  runAll(m, 96, false);
  EXPECT_EQ(m.ring()->inserts(), 0u);  // clean pages never swap to the ring
  EXPECT_EQ(m.metrics().swap_outs, 0u);
}

TEST(EdgeConfig, TinyPagesLargeCounts) {
  MachineConfig c;
  c.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
  c.page_bytes = 1024;
  c.memory_per_node = 16 * 1024;  // 16 small frames
  c.ring_channel_bytes = 8 * 1024;
  c.disk_cache_bytes = 4 * 1024;
  c.min_free_frames = 2;
  Machine m(c);
  runAll(m, 128, true);
}

TEST(EdgeConfig, AppOnSixteenNodes) {
  MachineConfig c;
  c.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
  c.num_nodes = 16;
  c.num_io_nodes = 4;
  c.ring_channels = 16;
  c.memory_per_node = 32 * 1024;
  c.min_free_frames = 2;
  const apps::RunSummary s = apps::runApp(c, "radix", 0.12);
  EXPECT_TRUE(s.verified);
  EXPECT_EQ(s.invariant_violations, "");
}

// Configurations that used to crash or mislead (segfault, SIGFPE, a bogus
// execution time, a silently doubled-up disk) are rejected when the machine
// is built, with a message naming the key.
void expectRejected(const MachineConfig& c, const std::string& key) {
  try {
    Machine m(c);
    ADD_FAILURE() << "accepted a config with bad " << key;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

TEST(EdgeConfig, RejectsZeroTlbEntries) {
  MachineConfig c;
  c.tlb_entries = 0;
  expectRejected(c, "tlb_entries");
}

TEST(EdgeConfig, RejectsIoNodeCountOutsideMachine) {
  MachineConfig c;
  c.num_io_nodes = 0;
  expectRejected(c, "io_nodes");
  c.num_io_nodes = c.num_nodes + 1;
  expectRejected(c, "io_nodes");
  c.num_io_nodes = c.num_nodes;
  EXPECT_NO_THROW(Machine{c});
}

TEST(EdgeConfig, RejectsNonPositiveCycleTime) {
  MachineConfig c;
  c.pcycle_ns = 0.0;
  expectRejected(c, "pcycle_ns");
  c.pcycle_ns = -5.0;
  expectRejected(c, "pcycle_ns");
}

TEST(EdgeConfig, RejectsPagesThatSplitCacheLines) {
  MachineConfig c;
  c.page_bytes = 1000;
  expectRejected(c, "page_bytes");
}

TEST(EdgeConfig, RejectsNodeCountBeyondMaskWidth) {
  MachineConfig c;
  c.num_nodes = 65;
  expectRejected(c, "num_nodes");
  c.num_nodes = 0;
  expectRejected(c, "num_nodes");
}

}  // namespace
}  // namespace nwc::machine
