// Tlb: LRU translations, shootdown invalidation; and sim::PageLruList, the
// recency list behind the TLB and the frame pool.
#include <gtest/gtest.h>

#include <vector>

#include "mem/tlb.hpp"
#include "sim/page_lru.hpp"

namespace nwc::mem {
namespace {

TEST(Tlb, MissThenHit) {
  Tlb t(4);
  EXPECT_FALSE(t.lookup(7));
  t.insert(7);
  EXPECT_TRUE(t.lookup(7));
}

TEST(Tlb, LruEvictionAtCapacity) {
  Tlb t(2);
  t.insert(1);
  t.insert(2);
  EXPECT_TRUE(t.lookup(1));  // refresh 1 -> 2 is LRU
  t.insert(3);
  EXPECT_TRUE(t.lookup(1));
  EXPECT_FALSE(t.lookup(2));
  EXPECT_TRUE(t.lookup(3));
}

TEST(Tlb, InsertExistingRefreshes) {
  Tlb t(2);
  t.insert(1);
  t.insert(2);
  t.insert(1);  // refresh, no growth
  EXPECT_EQ(t.size(), 2);
  t.insert(3);  // evicts 2
  EXPECT_FALSE(t.lookup(2));
}

TEST(Tlb, InsertReturnsEvictedPage) {
  Tlb t(2);
  EXPECT_EQ(t.insert(1), sim::kNoPage);
  EXPECT_EQ(t.insert(2), sim::kNoPage);
  EXPECT_EQ(t.insert(1), sim::kNoPage);  // refresh: 2 becomes LRU
  EXPECT_EQ(t.insert(3), 2);
  EXPECT_EQ(t.insert(4), 1);
  std::vector<sim::PageId> held;
  t.forEach([&](sim::PageId p) { held.push_back(p); });
  EXPECT_EQ(held, (std::vector<sim::PageId>{3, 4}));  // LRU first
}

TEST(Tlb, InvalidateRemovesEntry) {
  Tlb t(4);
  t.insert(5);
  EXPECT_TRUE(t.invalidate(5));
  EXPECT_FALSE(t.invalidate(5));
  EXPECT_FALSE(t.lookup(5));
}

TEST(Tlb, FlushEmptiesAll) {
  Tlb t(4);
  t.insert(1);
  t.insert(2);
  t.flush();
  EXPECT_EQ(t.size(), 0);
  EXPECT_FALSE(t.lookup(1));
}

TEST(Tlb, HitStats) {
  Tlb t(4);
  t.lookup(1);
  t.insert(1);
  t.lookup(1);
  EXPECT_EQ(t.hitStats().total(), 2u);
  EXPECT_EQ(t.hitStats().hits(), 1u);
}

TEST(Tlb, CapacityRespected) {
  Tlb t(64);
  for (sim::PageId p = 0; p < 200; ++p) t.insert(p);
  EXPECT_EQ(t.size(), 64);
  EXPECT_EQ(t.capacity(), 64);
}


TEST(PageLruList, EvictsLeastRecentlyTouched) {
  sim::PageLruList lru(2);
  lru.pushMru(1);
  lru.pushMru(2);
  EXPECT_TRUE(lru.touch(1));  // refresh: 1 is now most recent
  EXPECT_EQ(lru.lru(), sim::PageId{2});
  EXPECT_FALSE(lru.touch(3));  // absent: touch does not insert
  ASSERT_TRUE(lru.erase(lru.lru()));
  lru.pushMru(3);
  EXPECT_TRUE(lru.contains(1));
  EXPECT_FALSE(lru.contains(2));
  EXPECT_TRUE(lru.contains(3));
  EXPECT_EQ(lru.size(), 2);
  EXPECT_EQ(lru.lru(), sim::PageId{1});
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

}  // namespace
}  // namespace nwc::mem
