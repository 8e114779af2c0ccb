// Edge configurations: degenerate machine shapes must stay live and
// consistent (failure-injection-style robustness tests).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>

#include "apps/runner.hpp"
#include "machine/config_io.hpp"
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

TEST(EdgeConfig, RejectsFreeReserveBelowOne) {
  // With no reserve the replacement daemon never swaps a page out, so a
  // fault on a full node would wait forever.
  for (const int reserve : {0, -1}) {
    MachineConfig c;
    c.min_free_frames = reserve;
    try {
      Machine m(c);
      ADD_FAILURE() << "accepted min_free_frames = " << reserve;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("min_free_frames"), std::string::npos)
          << e.what();
    }
  }
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

TEST(EdgeConfig, RejectsZeroFramesPerNode) {
  for (const auto& [sys, name] : kSystemKindNames) {
    MachineConfig c;
    c.withSystem(sys, Prefetch::kOptimal);
    c.memory_per_node = 0;
    expectRejected(c, "memory_per_node");
    c.memory_per_node = c.page_bytes - 1;  // rounds down to zero frames
    expectRejected(c, "memory_per_node");
  }
}

TEST(EdgeConfig, RejectsZeroSlotDiskCache) {
  for (const auto& [sys, name] : kSystemKindNames) {
    MachineConfig c;
    c.withSystem(sys, Prefetch::kOptimal);
    c.disk_cache_bytes = 0;
    expectRejected(c, "disk_cache_bytes");
  }
}

TEST(EdgeConfig, RejectsEmptyRingOnlyWithRing) {
  MachineConfig c;
  c.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
  c.ring_channels = 0;
  expectRejected(c, "ring_channels");
  c.ring_channels = 8;
  c.ring_channel_bytes = 100;  // less than one page per channel
  expectRejected(c, "ring_channel_bytes");
  // The ring keys mean nothing without a ring.
  c.withSystem(SystemKind::kStandard, Prefetch::kOptimal);
  c.ring_channels = 0;
  EXPECT_NO_THROW(Machine{c});
}

TEST(EdgeConfig, RejectsEmptyWriteBuffer) {
  MachineConfig c;
  c.write_buffer_entries = 0;
  expectRejected(c, "write_buffer_entries");
  c.write_buffer_entries = -3;
  expectRejected(c, "write_buffer_entries");
}

TEST(EdgeConfig, RejectsEmptyStripeGroup) {
  for (const auto& [sys, name] : kSystemKindNames) {
    MachineConfig c;
    c.withSystem(sys, Prefetch::kOptimal);
    c.pages_per_group = 0;
    expectRejected(c, "pages_per_group");
  }
}

TEST(EdgeConfig, RejectsNegativeUnsignedKey) {
  // hop_latency is a tick count: -5 must not wrap to a huge latency. Real
  // keys are rates, times and scale factors, so a negative or non-finite
  // value is rejected too, and a probability stays inside [0, 1]. Values
  // that parse but make no sense for the machine (a cache that is not a
  // whole number of sets, a zero transfer rate, a seek range upside down,
  // no ring receiver) are rejected when the machine is built.
  const std::pair<std::string, std::string> kBad[] = {
      {"hop_latency", "-5"},        {"memory_per_node", "-5"},
      {"l2_bytes", "-5"},           {"rot_ms", "-1"},
      {"min_seek_ms", "-0.5"},      {"disk_bps", "inf"},
      {"memory_bus_bps", "nan"},    {"pcycle_ns", "-5"},
      {"ring_retune_us", "-inf"},   {"compute_cycle_scale", "-2"},
      {"hint_accuracy", "-0.1"},    {"hint_accuracy", "1.5"},
      {"l1_bytes", "0"},            {"l2_bytes", "0"},
      {"l1_bytes", "100"},          {"l2_bytes", "65600"},
      {"ring_receivers", "0"},      {"ring_receivers", "-1"},
      {"min_seek_ms", "30"},        {"memory_bus_bps", "0"},
      {"io_bus_bps", "0"},          {"net_link_bps", "0"},
      {"ring_bps", "0"},            {"disk_bps", "0"},
      {"log_disk_bps", "0"},
      // Each used to run and print a result: a wrapped tick count (rot_ms,
      // pcycle_ns), a bare std::bad_alloc (tlb_entries, disk_cache_bytes)
      // or a saturated seed.
      {"rot_ms", "1e300"},          {"pcycle_ns", "1e-300"},
      {"tlb_entries", "1000000000"}, {"disk_cache_bytes", "1099511627776"},
      {"seed", "99999999999999999999"}, {"access_quantum", "0"},
  };
  for (const auto& [key, value] : kBad) {
    const auto ini = util::IniFile::parse("[machine]\n" + key + " = " + value + "\n");
    MachineConfig c;
    try {
      applyIni(ini, c);
      Machine m(c);
      ADD_FAILURE() << "accepted " << key << " = " << value;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
  // Signed keys keep their own checks; zero stays a legal unsigned value.
  MachineConfig c;
  applyIni(util::IniFile::parse("[machine]\nhop_latency = 0\n"), c);
  EXPECT_EQ(c.hop_latency, 0u);
  applyIni(util::IniFile::parse("[machine]\nring_retune_us = 0\nhint_accuracy = 1\n"), c);
  EXPECT_EQ(c.ring_retune_us, 0.0);
  EXPECT_EQ(c.hint_accuracy, 1.0);
}

TEST(EdgeConfig, FourFramesPerNodeStaysLegal) {
  // The eviction goldens and the paging benchmark run with 4 frames per
  // node, fewer than the default free-frame reserve.
  MachineConfig c;
  c.memory_per_node = 16384;
  EXPECT_NO_THROW(Machine{c});
  applyIni(util::IniFile::parse("[machine]\nmemory_per_node = 16384\n"), c);
  EXPECT_NO_THROW(Machine{c});
}

TEST(EdgeConfig, LegalIdealisationsRunClean) {
  // Zero costs are legal on purpose (docs/CONFIG.md): each removes one
  // cost from the model and the machine still runs correctly.
  const std::pair<std::string, std::string> kLegal[] = {
      {"compute_cycle_scale", "0"}, {"ctrl_msg_bytes", "0"}, {"hop_latency", "0"},
      {"ring_round_trip_us", "0"},
  };
  for (const auto& [key, value] : kLegal) {
    MachineConfig c;
    c.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
    c.memory_per_node = 16384;
    applyIni(util::IniFile::parse("[machine]\n" + key + " = " + value + "\n"), c);
    const apps::RunSummary s = apps::runApp(c, "radix", 0.05);
    EXPECT_TRUE(s.verified) << key;
    EXPECT_EQ(s.invariant_violations, "") << key;
  }
}

TEST(EdgeConfig, FreeReserveAboveFrameCountActsAsWholeMemory) {
  // A reserve at or above the node's frame count keeps the replacement
  // daemon swapping until every frame is free: any such value runs the
  // same machine.
  auto exec = [](int reserve) {
    MachineConfig c;
    c.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
    c.memory_per_node = 16384;  // 4 frames
    c.min_free_frames = reserve;
    const apps::RunSummary s = apps::runApp(c, "radix", 0.05);
    EXPECT_TRUE(s.verified);
    EXPECT_EQ(s.invariant_violations, "");
    return s.exec_time;
  };
  const sim::Tick whole = exec(4);
  EXPECT_EQ(exec(5), whole);
  EXPECT_EQ(exec(100000), whole);
}

TEST(EdgeConfig, NackInFlightWhileCacheDrainsStillGetsOk) {
  // A long mesh hop lets the one-slot controller cache drain completely
  // while a NACK is in flight. The swap-out then registers for an OK that
  // no write completion would send; it is sent at once, as there is room.
  for (const SystemKind sys : {SystemKind::kDCD, SystemKind::kStandard}) {
    MachineConfig c;
    c.withSystem(sys, Prefetch::kOptimal);
    c.memory_per_node = 16384;
    c.min_free_frames = 12;
    c.disk_cache_bytes = 4096;
    c.hop_latency = 177436;
    const apps::RunSummary s = apps::runApp(c, "radix", 0.05);
    EXPECT_TRUE(s.verified) << toString(sys);
    EXPECT_EQ(s.invariant_violations, "") << toString(sys);
    EXPECT_GT(s.exec_time, 0u) << toString(sys);
  }
}

}  // namespace
}  // namespace nwc::machine
