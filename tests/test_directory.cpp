// Directory: MSI protocol actions.
#include <gtest/gtest.h>

#include <bit>
#include <unordered_map>
#include <vector>

#include "mem/directory.hpp"
#include "sim/random.hpp"

namespace nwc::mem {
namespace {

TEST(Directory, FirstReadHasNoActions) {
  Directory d(8);
  auto a = d.onRead(0, 100);
  EXPECT_FALSE(a.owner_flush);
  EXPECT_EQ(a.invalidations, 0);
}

TEST(Directory, ReadAfterRemoteWriteFlushesOwner) {
  Directory d(8);
  d.onWrite(3, 100);
  auto a = d.onRead(1, 100);
  EXPECT_TRUE(a.owner_flush);
  EXPECT_EQ(a.owner, 3);
  // A second read finds the line shared, no flush.
  auto b = d.onRead(2, 100);
  EXPECT_FALSE(b.owner_flush);
}

TEST(Directory, WriteInvalidatesAllSharers) {
  Directory d(8);
  d.onRead(0, 42);
  d.onRead(1, 42);
  d.onRead(2, 42);
  auto a = d.onWrite(1, 42);
  EXPECT_EQ(a.invalidations, 2);
  EXPECT_EQ(a.invalidate_mask, (1u << 0) | (1u << 2));
}

TEST(Directory, WriterReWriteIsFree) {
  Directory d(8);
  d.onWrite(4, 7);
  auto a = d.onWrite(4, 7);
  EXPECT_EQ(a.invalidations, 0);
  EXPECT_FALSE(a.owner_flush);
}

TEST(Directory, WriteAfterRemoteWriteFlushesAndInvalidates) {
  Directory d(8);
  d.onWrite(2, 9);
  auto a = d.onWrite(5, 9);
  EXPECT_TRUE(a.owner_flush);
  EXPECT_EQ(a.owner, 2);
  EXPECT_EQ(a.invalidations, 1);
  EXPECT_EQ(a.invalidate_mask, 1u << 2);
}

TEST(Directory, WritebackClearsOwnership) {
  Directory d(8);
  d.onWrite(1, 5);
  d.onWriteback(1, 5);
  auto a = d.onRead(0, 5);
  EXPECT_FALSE(a.owner_flush);
}

TEST(Directory, WritebackByNonOwnerKeepsOwner) {
  Directory d(8);
  d.onWrite(1, 5);
  d.onWriteback(2, 5);  // stale message from another node
  auto a = d.onRead(0, 5);
  EXPECT_TRUE(a.owner_flush);
  EXPECT_EQ(a.owner, 1);
}

TEST(Directory, DropPageReturnsHolderMask) {
  Directory d(8);
  d.onRead(0, 128);
  d.onRead(3, 129);
  d.onWrite(6, 130);
  const auto mask = d.dropPage(128, 3);
  EXPECT_EQ(mask, (1u << 0) | (1u << 3) | (1u << 6));
  EXPECT_EQ(d.trackedLines(), 0u);
}

TEST(Directory, DropPageOutsideRangeKeepsOthers) {
  Directory d(8);
  d.onRead(0, 10);
  d.onRead(0, 200);
  d.dropPage(10, 1);
  EXPECT_EQ(d.trackedLines(), 1u);
}

TEST(Directory, RemoteDirtyStats) {
  Directory d(8);
  d.onWrite(1, 77);
  d.onRead(2, 77);  // hit: remote dirty
  d.onRead(3, 77);  // miss: now shared
  EXPECT_EQ(d.remoteDirtyStats().hits(), 1u);
  EXPECT_EQ(d.remoteDirtyStats().total(), 2u);
}

// Reference model: one hash entry per tracked line, the layout the chunked
// directory replaced. Every returned action, drop mask and counter of the
// directory must match it.
class ReferenceDirectory {
 public:
  CoherenceActions onRead(sim::NodeId n, std::uint64_t line) {
    CoherenceActions a;
    Entry& e = map_[line];
    if (e.owner != sim::kNoNode && e.owner != n) {
      a.owner_flush = true;
      a.owner = e.owner;
      remote_dirty_.hit();
    } else {
      remote_dirty_.miss();
    }
    e.owner = sim::kNoNode;
    e.sharers |= std::uint64_t{1} << n;
    return a;
  }

  CoherenceActions onWrite(sim::NodeId n, std::uint64_t line) {
    CoherenceActions a;
    Entry& e = map_[line];
    if (e.owner != sim::kNoNode && e.owner != n) {
      a.owner_flush = true;
      a.owner = e.owner;
    }
    a.invalidate_mask = e.sharers & ~(std::uint64_t{1} << n);
    a.invalidations = std::popcount(a.invalidate_mask);
    e.sharers = std::uint64_t{1} << n;
    e.owner = n;
    return a;
  }

  /// Returns false for a writeback of an untracked line.
  bool onWriteback(sim::NodeId n, std::uint64_t line) {
    auto it = map_.find(line);
    if (it == map_.end()) return false;
    if (it->second.owner == n) it->second.owner = sim::kNoNode;
    it->second.sharers &= ~(std::uint64_t{1} << n);
    if (it->second.sharers == 0) map_.erase(it);
    return true;
  }

  std::uint64_t dropPage(std::uint64_t first_line, std::uint64_t lines) {
    std::uint64_t mask = 0;
    for (std::uint64_t l = first_line; l < first_line + lines; ++l) {
      auto it = map_.find(l);
      if (it == map_.end()) continue;
      mask |= it->second.sharers;
      if (it->second.owner != sim::kNoNode) mask |= std::uint64_t{1} << it->second.owner;
      map_.erase(it);
    }
    return mask;
  }

  std::size_t trackedLines() const { return map_.size(); }
  const sim::RatioCounter& remoteDirtyStats() const { return remote_dirty_; }

 private:
  struct Entry {
    std::uint64_t sharers = 0;
    sim::NodeId owner = sim::kNoNode;
  };
  std::unordered_map<std::uint64_t, Entry> map_;
  sim::RatioCounter remote_dirty_;
};

void expectSameActions(const CoherenceActions& got, const CoherenceActions& want, int step) {
  EXPECT_EQ(got.owner_flush, want.owner_flush) << "step " << step;
  EXPECT_EQ(got.owner, want.owner) << "step " << step;
  EXPECT_EQ(got.invalidations, want.invalidations) << "step " << step;
  EXPECT_EQ(got.invalidate_mask, want.invalidate_mask) << "step " << step;
}

TEST(Directory, MatchesPerLineReferenceOnRandomSequences) {
  constexpr int kNodes = 64;  // sharer masks use every bit
  constexpr std::uint64_t kLines = 8 * 64;
  int straddling_drops = 0;
  int untracked_writebacks = 0;
  int chunk_reuses = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng(seed);
    Directory d(kNodes);
    ReferenceDirectory ref;
    // Chunks emptied by a drop; touching one again reuses a freed chunk.
    std::vector<bool> emptied(kLines / 64, false);
    for (int step = 0; step < 20000; ++step) {
      // Few nodes per run keep lines shared by several of them at once.
      const auto n = static_cast<sim::NodeId>(rng.below(seed % 2 ? 4 : kNodes));
      const std::uint64_t line = rng.below(kLines);
      const std::uint64_t op = rng.below(100);
      if (op < 75) {
        if (emptied[line / 64]) ++chunk_reuses;
        emptied[line / 64] = false;
        if (op < 45) {
          expectSameActions(d.onRead(n, line), ref.onRead(n, line), step);
        } else {
          expectSameActions(d.onWrite(n, line), ref.onWrite(n, line), step);
        }
      } else if (op < 97) {
        d.onWriteback(n, line);
        if (!ref.onWriteback(n, line)) ++untracked_writebacks;
      } else {
        // A page-sized drop at any line offset, so many cross a chunk edge.
        const std::uint64_t first = rng.below(kLines);
        const std::uint64_t count = 1 + rng.below(op == 99 ? 160 : 64);
        if (first / 64 != (first + count - 1) / 64) ++straddling_drops;
        const std::uint64_t mask = ref.dropPage(first, count);
        ASSERT_EQ(d.dropPage(first, count), mask) << "step " << step;
        for (std::uint64_t c = 0; c < kLines / 64; ++c) {
          if (first <= c * 64 && c * 64 + 64 <= first + count) emptied[c] = true;
        }
      }
      ASSERT_EQ(d.trackedLines(), ref.trackedLines()) << "step " << step;
      ASSERT_EQ(d.remoteDirtyStats().hits(), ref.remoteDirtyStats().hits());
      ASSERT_EQ(d.remoteDirtyStats().total(), ref.remoteDirtyStats().total());
    }
    // Drop everything: every chunk goes back to the free list, then the
    // next run of reads reuses them.
    ASSERT_EQ(d.dropPage(0, kLines), ref.dropPage(0, kLines));
    EXPECT_EQ(d.trackedLines(), 0u);
    for (std::uint64_t l = 0; l < kLines; l += 3) {
      expectSameActions(d.onRead(1, l), ref.onRead(1, l), -1);
    }
    EXPECT_EQ(d.trackedLines(), ref.trackedLines());
  }
  EXPECT_GT(straddling_drops, 100);
  EXPECT_GT(untracked_writebacks, 100);
  EXPECT_GT(chunk_reuses, 10);
}

TEST(Directory, DropPageStraddlingChunksDropsOnlyItsRange) {
  Directory d(8);
  for (std::uint64_t l = 60; l < 70; ++l) d.onRead(static_cast<sim::NodeId>(l % 8), l);
  // Lines 62..67 span the chunk edge at 64; 60, 61, 68 and 69 stay.
  EXPECT_EQ(d.dropPage(62, 6), 0b11001111u);
  EXPECT_EQ(d.trackedLines(), 4u);
  EXPECT_EQ(d.dropPage(60, 2), 0b110000u);
  EXPECT_EQ(d.dropPage(68, 2), 0b110000u);
  EXPECT_EQ(d.trackedLines(), 0u);
}

TEST(Directory, WritebackOfUntrackedLineIsIgnored) {
  Directory d(8);
  d.onWriteback(3, 500);  // no chunk at all
  d.onRead(1, 501);
  d.onWriteback(3, 500);  // chunk exists, line does not
  EXPECT_EQ(d.trackedLines(), 1u);
  d.onWriteback(1, 501);
  EXPECT_EQ(d.trackedLines(), 0u);
  auto a = d.onRead(2, 500);
  EXPECT_FALSE(a.owner_flush);
}

}  // namespace
}  // namespace nwc::mem
