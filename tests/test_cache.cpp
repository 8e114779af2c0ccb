// SetAssocCache: hits, LRU eviction, dirty tracking, invalidation.
#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.hpp"
#include "sim/random.hpp"

namespace nwc::mem {
namespace {

CacheParams smallCache() {
  CacheParams p;
  p.size_bytes = 256;  // 8 lines
  p.line_bytes = 32;
  p.assoc = 2;         // 4 sets x 2 ways
  return p;
}

TEST(Cache, ColdMissThenHit) {
  SetAssocCache c(smallCache());
  EXPECT_FALSE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x11F, false).hit);   // same 32-byte line
  EXPECT_FALSE(c.access(0x120, false).hit);  // next line
}

TEST(Cache, ContainsIsSideEffectFree) {
  SetAssocCache c(smallCache());
  EXPECT_FALSE(c.contains(0x40));
  c.access(0x40, false);
  EXPECT_TRUE(c.contains(0x40));
  EXPECT_EQ(c.hitStats().total(), 1u);  // contains() did not count
}

TEST(Cache, LruEvictionWithinSet) {
  SetAssocCache c(smallCache());
  // Set = line % 4. Lines 0, 4, 8 all map to set 0 (2 ways).
  c.access(0 * 32, false);
  c.access(4 * 32, false);
  c.access(0 * 32, false);  // refresh line 0
  auto out = c.access(8 * 32, false);
  EXPECT_TRUE(out.evicted);
  EXPECT_EQ(out.evicted_line, 4u);  // line 4 was LRU
  EXPECT_FALSE(out.evicted_dirty);
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(4 * 32));
}

TEST(Cache, DirtyEvictionReported) {
  SetAssocCache c(smallCache());
  c.access(0 * 32, true);  // dirty
  c.access(4 * 32, false);
  auto out = c.access(8 * 32, false);  // evicts line 0 (LRU)
  EXPECT_TRUE(out.evicted);
  EXPECT_TRUE(out.evicted_dirty);
  EXPECT_EQ(out.evicted_line, 0u);
}

TEST(Cache, WriteToCleanLineMarksDirty) {
  SetAssocCache c(smallCache());
  c.access(0, false);
  c.access(0, true);  // now dirty
  EXPECT_TRUE(c.invalidateLine(0));  // returns was-dirty
}

TEST(Cache, InvalidateLine) {
  SetAssocCache c(smallCache());
  c.access(0x40, false);
  EXPECT_FALSE(c.invalidateLine(c.lineOf(0x40)));  // clean
  EXPECT_FALSE(c.contains(0x40));
  EXPECT_FALSE(c.invalidateLine(c.lineOf(0x40)));  // already gone
}

TEST(Cache, InvalidatePageCountsDirtyLines) {
  CacheParams p;
  p.size_bytes = 8192;
  p.line_bytes = 32;
  p.assoc = 4;
  SetAssocCache c(p);
  // Touch 4 lines of the page at 0x1000, two dirty.
  c.access(0x1000, true);
  c.access(0x1020, false);
  c.access(0x1040, true);
  c.access(0x1060, false);
  EXPECT_EQ(c.invalidatePage(0x1000, 4096), 2);
  EXPECT_FALSE(c.contains(0x1000));
  EXPECT_FALSE(c.contains(0x1060));
}

TEST(Cache, FlushAllEmptiesCache) {
  SetAssocCache c(smallCache());
  c.access(0, true);
  c.access(64, false);
  c.flushAll();
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.contains(64));
}

TEST(Cache, HitStatsAccumulate) {
  SetAssocCache c(smallCache());
  c.access(0, false);
  c.access(0, false);
  c.access(0, false);
  EXPECT_EQ(c.hitStats().total(), 3u);
  EXPECT_EQ(c.hitStats().hits(), 2u);
}

TEST(Cache, DegenerateSingleSet) {
  CacheParams p;
  p.size_bytes = 64;
  p.line_bytes = 32;
  p.assoc = 2;  // exactly one set
  SetAssocCache c(p);
  c.access(0, false);
  c.access(32, false);
  auto out = c.access(64, false);
  EXPECT_TRUE(out.evicted);
}

// Reference model: the single-loop lookup-and-fill that `access()` has
// always performed. The victim is the last invalid way in index order,
// else the least recently used valid way.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheParams& p)
      : line_bytes_(p.line_bytes),
        assoc_(p.assoc),
        sets_(p.size_bytes / p.line_bytes / p.assoc),
        ways_(sets_ * assoc_) {}

  CacheOutcome access(std::uint64_t addr, bool write) {
    const std::uint64_t line = addr / line_bytes_;
    const std::uint64_t set = line % sets_;
    const std::uint64_t tag = line / sets_;
    Way* base = &ways_[set * assoc_];
    CacheOutcome out;
    Way* victim = base;
    for (std::uint64_t w = 0; w < assoc_; ++w) {
      Way& way = base[w];
      if (way.valid && way.tag == tag) {
        way.lru = ++tick_;
        way.dirty = way.dirty || write;
        out.hit = true;
        return out;
      }
      if (!way.valid) {
        victim = &way;
      } else if (victim->valid && way.lru < victim->lru) {
        victim = &way;
      }
    }
    if (victim->valid) {
      out.evicted = true;
      out.evicted_dirty = victim->dirty;
      out.evicted_line = victim->tag * sets_ + set;
    }
    *victim = Way{tag, ++tick_, true, write};
    return out;
  }

  bool invalidateLine(std::uint64_t line) {
    Way* base = &ways_[(line % sets_) * assoc_];
    for (std::uint64_t w = 0; w < assoc_; ++w) {
      if (base[w].valid && base[w].tag == line / sets_) {
        const bool dirty = base[w].dirty;
        base[w] = Way{};
        return dirty;
      }
    }
    return false;
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };
  std::uint64_t line_bytes_, assoc_, sets_;
  std::vector<Way> ways_;
  std::uint64_t tick_ = 0;
};

void expectSameOutcome(const CacheOutcome& got, const CacheOutcome& want, int step) {
  EXPECT_EQ(got.hit, want.hit) << "step " << step;
  EXPECT_EQ(got.evicted, want.evicted) << "step " << step;
  EXPECT_EQ(got.evicted_dirty, want.evicted_dirty) << "step " << step;
  EXPECT_EQ(got.evicted_line, want.evicted_line) << "step " << step;
}

// One cache driven through access(), its twin through accessIfHit() plus
// fill() on a miss, both against the reference model. Invalidations leave
// holes in full sets, so a fill must take a hole over the LRU line. (Which
// hole it takes is not observable: the LRU stamps, not way order, pick
// every later victim.)
TEST(Cache, ProbeAndFillMatchAccess) {
  struct Geometry {
    std::uint64_t size_bytes;
    std::uint32_t assoc;
  };
  const Geometry kGeometries[] = {
      {32 * 16, 1},      // direct mapped, 16 sets
      {32 * 2 * 8, 2},   // 8 sets
      {32 * 4 * 16, 4},  // 16 sets
      {32 * 4 * 6, 4},   // 6 sets: the divide path
  };
  for (const Geometry& g : kGeometries) {
    const CacheParams p{g.size_bytes, 32, g.assoc};
    SetAssocCache direct(p);
    SetAssocCache twin(p);
    ReferenceCache ref(p);
    const std::uint64_t lines = 3 * g.size_bytes / 32;  // three lines per slot
    sim::Rng rng(g.size_bytes + g.assoc);
    int hits = 0;
    int fills_into_holes = 0;
    for (int step = 0; step < 50000; ++step) {
      const std::uint64_t addr = rng.below(lines * 32);
      if (rng.below(8) == 0) {
        const std::uint64_t line = direct.lineOf(addr);
        const bool dirty = ref.invalidateLine(line);
        ASSERT_EQ(direct.invalidateLine(line), dirty) << "step " << step;
        ASSERT_EQ(twin.invalidateLine(line), dirty) << "step " << step;
        continue;
      }
      const bool write = rng.below(3) == 0;
      const CacheOutcome want = ref.access(addr, write);
      expectSameOutcome(direct.access(addr, write), want, step);
      if (twin.accessIfHit(addr, write)) {
        EXPECT_TRUE(want.hit) << "step " << step;
        ++hits;
      } else {
        ASSERT_FALSE(want.hit) << "step " << step;
        expectSameOutcome(twin.fill(addr, write), want, step);
        if (!want.evicted && step > 1000) ++fills_into_holes;
      }
      ASSERT_EQ(direct.hitStats().hits(), twin.hitStats().hits()) << "step " << step;
      ASSERT_EQ(direct.hitStats().total(), twin.hitStats().total()) << "step " << step;
    }
    EXPECT_GT(hits, 1000) << g.size_bytes << "/" << g.assoc;
    EXPECT_GT(fills_into_holes, 1000) << g.size_bytes << "/" << g.assoc;
  }
}

}  // namespace
}  // namespace nwc::mem
