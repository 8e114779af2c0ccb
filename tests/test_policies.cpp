// Write-cache policy engine tests (machine/backends/cache_policy).
//
// 1. Unit tests of admission: the sieve's miss-filter threshold and
//    ghost-cache promotion state machine, the counting gate
//    (admitToWriteCache), and the sim::PageLruList building block.
// 2. Write-combine batching: DiskCache::planWriteBatch(longest_run) picks
//    the longest consecutive-Dirty run, ties broken toward the oldest.
// 3. Smoke: sieve/write-combine machines run verified with clean
//    invariants and actually exercise the policy (decisions recorded).
// (The explicit `always` + `fifo` machine is byte-identical to the
// default one: ci/backend_golden/, a ctest golden, pins both.)
#include <gtest/gtest.h>

#include "apps/runner.hpp"
#include "io/disk_cache.hpp"
#include "machine/backends/cache_policy.hpp"
#include "machine/metrics.hpp"
#include "sim/page_lru.hpp"

namespace nwc::machine {
namespace {

using sim::PageId;

// ---------------------------------------------------------------------------
// sim::PageLruList (the sieve's ghost cache and miss filter)
// ---------------------------------------------------------------------------

TEST(PageLruList, EvictsLeastRecentlyTouched) {
  sim::PageLruList lru(2);
  lru.pushMru(1);
  lru.pushMru(2);
  EXPECT_TRUE(lru.touch(1));  // refresh: 1 is now most recent
  EXPECT_EQ(lru.lru(), PageId{2});
  EXPECT_FALSE(lru.touch(3));  // absent: touch does not insert
  ASSERT_TRUE(lru.erase(lru.lru()));
  lru.pushMru(3);
  EXPECT_TRUE(lru.contains(1));
  EXPECT_FALSE(lru.contains(2));
  EXPECT_TRUE(lru.contains(3));
  EXPECT_EQ(lru.size(), 2);
  EXPECT_EQ(lru.lru(), PageId{1});
}

TEST(PageLruList, EraseDropsTrackedPages) {
  sim::PageLruList lru(4);
  lru.pushMru(7);
  EXPECT_TRUE(lru.erase(7));
  EXPECT_FALSE(lru.erase(7));
  EXPECT_FALSE(lru.contains(7));
  EXPECT_TRUE(lru.empty());
  EXPECT_EQ(lru.lru(), sim::kNoPage);
}

// ---------------------------------------------------------------------------
// Admission: the sieve and the counting gate
// ---------------------------------------------------------------------------

MachineConfig sieveConfig(int threshold) {
  MachineConfig cfg;
  cfg.ring_admission = AdmissionKind::kSieve;
  cfg.sieve_threshold = threshold;
  return cfg;
}

TEST(CachePolicyTest, NoSieveAdmitsEverythingAndCounts) {
  Metrics m{0};
  for (PageId page : {1, 2, 3}) EXPECT_TRUE(admitToWriteCache(nullptr, page, m));
  EXPECT_EQ(m.policy_admits, 3u);
  EXPECT_EQ(m.policy_rejects, 0u);
}

TEST(CachePolicyTest, SieveAdmitsAfterThresholdMisses) {
  Metrics m{0};
  SieveAdmission p(sieveConfig(2), m);

  // First swap-out of a page is sieved out; the second saturates the miss
  // counter and every decision from then on admits.
  EXPECT_FALSE(admitToWriteCache(&p, 11, m));
  EXPECT_TRUE(admitToWriteCache(&p, 11, m));
  EXPECT_TRUE(admitToWriteCache(&p, 11, m));
  EXPECT_EQ(m.policy_rejects, 1u);
  EXPECT_EQ(m.policy_admits, 2u);
}

TEST(CachePolicyTest, SieveGhostHitPromotesDestagedPage) {
  Metrics m{0};
  SieveAdmission p(sieveConfig(2), m);

  // Page 21 leaves the write cache, then faults without being staged: the
  // cache destaged something still hot, so it is promoted and its next
  // admission succeeds immediately (no sieving).
  p.noteDestage(21);
  p.noteFault(21, false);
  EXPECT_EQ(m.policy_ghost_hits, 1u);
  EXPECT_TRUE(p.admit(21));

  // A fault served *from* the write cache teaches nothing: page 22 stays
  // in the ghost, is not promoted, and still has to pass the miss filter.
  p.noteDestage(22);
  p.noteFault(22, true);
  EXPECT_EQ(m.policy_ghost_hits, 1u);
  EXPECT_FALSE(p.admit(22));
}

TEST(CachePolicyTest, SievePromotionIsSticky) {
  Metrics m{0};
  SieveAdmission p(sieveConfig(3), m);

  p.noteDestage(31);
  p.noteFault(31, false);  // promoted
  EXPECT_TRUE(admitToWriteCache(&p, 31, m));
  // A later destage of the promoted page does not demote it back into the
  // ghost: it keeps being admitted unconditionally.
  p.noteDestage(31);
  EXPECT_TRUE(admitToWriteCache(&p, 31, m));
  EXPECT_EQ(m.policy_rejects, 0u);
}

// ---------------------------------------------------------------------------
// Write-combine destage batching (DiskCache::planWriteBatch)
// ---------------------------------------------------------------------------

TEST(WriteCombine, LongestRunWinsOverOldestAnchor) {
  io::DiskCache cache(6);
  // Staging order (= age order): 10 first, then the 20-run, then the 5-run.
  for (PageId p : {10, 20, 21, 22, 5, 6}) ASSERT_TRUE(cache.insertDirty(p));

  // FIFO destage anchors at the oldest Dirty page (10, a run of one).
  EXPECT_EQ(cache.planWriteBatch(false), (std::vector<PageId>{10}));
  // Write-combine picks the longest consecutive-Dirty run instead.
  EXPECT_EQ(cache.planWriteBatch(true), (std::vector<PageId>{20, 21, 22}));
}

TEST(WriteCombine, TieBreaksTowardTheRunHoldingTheOldestPage) {
  io::DiskCache cache(6);
  for (PageId p : {40, 41, 8, 9}) ASSERT_TRUE(cache.insertDirty(p));
  // Two runs of two; the 40-run holds the oldest Dirty page.
  EXPECT_EQ(cache.planWriteBatch(true), (std::vector<PageId>{40, 41}));
}

TEST(WriteCombine, FallsBackToFifoForSingletons) {
  io::DiskCache cache(4);
  for (PageId p : {100, 200}) ASSERT_TRUE(cache.insertDirty(p));
  EXPECT_EQ(cache.planWriteBatch(true), (std::vector<PageId>{100}));
  cache.completeWrite({100});
  EXPECT_EQ(cache.planWriteBatch(true), (std::vector<PageId>{200}));
}

// ---------------------------------------------------------------------------
// Non-default policies: verified runs with clean invariants
// ---------------------------------------------------------------------------

apps::RunSummary runPolicy(SystemKind sys, AdmissionKind adm, DestageKind dst) {
  MachineConfig cfg;
  cfg.system = sys;
  cfg.prefetch = Prefetch::kOptimal;
  cfg.memory_per_node = 16384;  // heavy paging: the policies get exercised
  cfg.seed = 1;
  cfg.ring_admission = adm;
  cfg.destage_policy = dst;
  cfg.policy_ghost_pages = 64;  // a small table so the sieve discriminates
  return apps::runApp(cfg, "radix", 0.05);
}

TEST(PolicySmoke, SieveOnRingRejectsAndStaysConsistent) {
  const auto s = runPolicy(SystemKind::kNWCache, AdmissionKind::kSieve,
                           DestageKind::kFifo);
  EXPECT_TRUE(s.verified);
  EXPECT_EQ(s.invariant_violations, "");
  EXPECT_GT(s.metrics.policy_rejects, 0u);
  EXPECT_GT(s.metrics.policy_admits, 0u);
}

TEST(PolicySmoke, SieveOnDcdRejectsAndStaysConsistent) {
  const auto s =
      runPolicy(SystemKind::kDCD, AdmissionKind::kSieve, DestageKind::kFifo);
  EXPECT_TRUE(s.verified);
  EXPECT_EQ(s.invariant_violations, "");
  EXPECT_GT(s.metrics.policy_rejects, 0u);
  EXPECT_GT(s.metrics.policy_admits, 0u);
}

TEST(PolicySmoke, WriteCombineDestageStaysConsistent) {
  const auto s = runPolicy(SystemKind::kDCD, AdmissionKind::kAlways,
                           DestageKind::kWriteCombine);
  EXPECT_TRUE(s.verified);
  EXPECT_EQ(s.invariant_violations, "");
  EXPECT_GT(s.metrics.destage_writes, 0u);
  // Combined destage moves at least one page per operation.
  EXPECT_GE(s.metrics.destage_pages, s.metrics.destage_writes);
}

}  // namespace
}  // namespace nwc::machine
