// Backend tests. (The run summary of every backend is pinned byte for byte
// by ci/backend_golden/, a ctest golden.)
//
// 1. TunableReceiverBank unit tests: a saturated receiver queues work (FIFO,
//    nothing dropped), dedicated mode routes by use, shared mode charges
//    retunes on channel switches.
// 2. White-box machine test: with a single receiver per node, ring drains
//    behind a busy receiver are delayed, never dropped.
#include <gtest/gtest.h>

#include <vector>

#include "machine/backends/ring_backend.hpp"
#include "machine/machine.hpp"
#include "nwcache/interface.hpp"
#include "nwcache/optical_ring.hpp"

namespace nwc::machine {
namespace {

using sim::PageId;
using sim::Tick;

// ---------------------------------------------------------------------------
// TunableReceiverBank unit tests
// ---------------------------------------------------------------------------

TEST(ReceiverBank, SaturatedSingleReceiverQueuesInFifoOrder) {
  ring::ReceiverParams p;
  p.receivers = 1;
  p.retune_ticks = 0;
  p.dedicated = true;
  ring::TunableReceiverBank bank(p, "test");

  // Eight transfers all requested at t=0 from the same channel: every one is
  // granted (never dropped), back to back, with the wait billed as queueing.
  constexpr Tick kService = 100;
  for (int i = 0; i < 8; ++i) {
    const auto g = bank.request(0, ring::TunableReceiverBank::Use::kDrain, 3,
                                kService);
    EXPECT_EQ(g.receiver, 0);
    EXPECT_EQ(g.retune, 0);
    EXPECT_EQ(g.done, static_cast<Tick>(i + 1) * kService);
    EXPECT_EQ(g.queued, static_cast<Tick>(i) * kService);
  }
  EXPECT_EQ(bank.receiver(0).jobs(), 8u);
  EXPECT_EQ(bank.receiver(0).busyTicks(), 8 * kService);
  EXPECT_EQ(bank.receiver(0).queuedTicks(), (1 + 2 + 3 + 4 + 5 + 6 + 7) * kService);

  // With one receiver, faults share it with drains and queue behind them.
  const auto g = bank.request(0, ring::TunableReceiverBank::Use::kFault, 9,
                              kService);
  EXPECT_EQ(g.receiver, 0);
  EXPECT_EQ(g.done, 9 * kService);
  EXPECT_EQ(g.queued, 8 * kService);
}

TEST(ReceiverBank, DedicatedModeRoutesByUse) {
  ring::ReceiverParams p;
  p.receivers = 2;
  p.retune_ticks = 0;
  p.dedicated = true;
  ring::TunableReceiverBank bank(p, "test");

  const auto drain =
      bank.request(0, ring::TunableReceiverBank::Use::kDrain, 0, 100);
  const auto fault =
      bank.request(0, ring::TunableReceiverBank::Use::kFault, 1, 100);
  EXPECT_EQ(drain.receiver, 0);
  EXPECT_EQ(fault.receiver, 1);
  // The roles do not contend with each other.
  EXPECT_EQ(drain.queued, 0);
  EXPECT_EQ(fault.queued, 0);
  EXPECT_EQ(bank.receiver(0).jobs(), 1u);
  EXPECT_EQ(bank.receiver(1).jobs(), 1u);
}

TEST(ReceiverBank, SharedModeChargesRetunesAndPrefersTunedReceiver) {
  ring::ReceiverParams p;
  p.receivers = 2;
  p.retune_ticks = 50;
  p.dedicated = false;
  ring::TunableReceiverBank bank(p, "test");

  // First touch of channel 7 on each receiver pays the retune.
  const auto r1 = bank.request(0, ring::TunableReceiverBank::Use::kDrain, 7, 100);
  EXPECT_EQ(r1.receiver, 0);
  EXPECT_EQ(r1.retune, 50);
  EXPECT_EQ(r1.done, 150);
  const auto r2 = bank.request(0, ring::TunableReceiverBank::Use::kDrain, 7, 100);
  EXPECT_EQ(r2.receiver, 1);
  EXPECT_EQ(r2.retune, 50);
  EXPECT_EQ(r2.done, 150);

  // Both busy until 150 and both now tuned to 7: the tie goes to the lowest
  // index, no retune, and the wait is billed as queueing.
  const auto r3 = bank.request(0, ring::TunableReceiverBank::Use::kFault, 7, 100);
  EXPECT_EQ(r3.receiver, 0);
  EXPECT_EQ(r3.retune, 0);
  EXPECT_EQ(r3.done, 250);
  EXPECT_EQ(r3.queued, 150);

  // Switching channels charges the retune again.
  const auto r4 =
      bank.request(250, ring::TunableReceiverBank::Use::kFault, 9, 100);
  EXPECT_EQ(r4.retune, 50);
  EXPECT_EQ(bank.retunes(), 3u);
}

// ---------------------------------------------------------------------------
// White-box machine test: a saturated single receiver delays ring drains
// ---------------------------------------------------------------------------

MachineConfig singleReceiverConfig() {
  MachineConfig c;
  c.withSystem(SystemKind::kNWCache, Prefetch::kOptimal);
  c.memory_per_node = 32 * 1024;
  c.min_free_frames = 2;
  c.ring_receivers = 1;
  return c;
}

// Stages `pages` on channel `ch` exactly as completed ring swap-outs would
// appear, including the interface FIFO records.
void stageOnRing(Machine& m, int ch, const std::vector<PageId>& pages) {
  std::uint64_t seq = 1;
  for (PageId p : pages) {
    auto& e = m.pageTable().entry(p);
    m.ring()->reserve(ch);
    m.ring()->insert(ch, p);
    e.ring_channel = ch;
    e.last_translation = ch;
    e.dirty = true;
    m.pageTable().setState(p, vm::PageState::kRing);
    m.nwcFifos(m.pfs().diskOf(p)).push(ch, {p, ch, seq++});
  }
}

TEST(ReceiverBank, SaturatedReceiverQueuesRingDrainsWithoutDropping) {
  Machine m(singleReceiverConfig());
  m.allocRegion(64 * 4096);

  auto& backend = dynamic_cast<RingBackend&>(m.backend());
  const int disk = m.pfs().diskOf(1);
  const sim::NodeId io_node =
      m.config().ioNodes()[static_cast<std::size_t>(disk)];

  // Park the I/O node's only receiver on a long fault-side transfer before
  // the drain daemons start; every drain must now wait its turn.
  constexpr Tick kBusy = 1'000'000;
  const auto pre = backend.receiverBank(io_node).request(
      0, ring::TunableReceiverBank::Use::kFault, 0, kBusy);
  ASSERT_EQ(pre.receiver, 0);
  ASSERT_EQ(pre.done, kBusy);

  m.start();
  stageOnRing(m, 0, {1, 2, 3});
  m.kickDisk(disk);
  m.engine().run();

  // Nothing was dropped: every staged page reached the disk, the ring is
  // empty, and the combined burst hit the write-behind exactly once.
  EXPECT_EQ(m.ring()->totalOccupancy(), 0);
  EXPECT_EQ(m.pageTable().countInState(vm::PageState::kRing), 0);
  for (PageId p : {1, 2, 3}) {
    EXPECT_EQ(m.pageTable().entry(p).state, vm::PageState::kDisk);
    EXPECT_FALSE(m.pageTable().entry(p).dirty);
  }
  EXPECT_EQ(m.metrics().write_combining.count(), 1u);
  EXPECT_DOUBLE_EQ(m.metrics().write_combining.mean(), 3.0);

  // The drains all went through receiver 0, behind the synthetic transfer:
  // 1 synthetic + 3 drains served, with the first drain's wait for the busy
  // receiver billed as queueing.
  const auto& rx = backend.receiverBank(io_node).receiver(0);
  EXPECT_EQ(rx.jobs(), 4u);
  EXPECT_GE(rx.queuedTicks(), kBusy - static_cast<Tick>(m.ring()->roundTripTicks()));
  EXPECT_GE(rx.busyUntil(), kBusy);
}

}  // namespace
}  // namespace nwc::machine
