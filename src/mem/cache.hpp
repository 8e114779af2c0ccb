// Set-associative write-back cache model (used for both L1 and L2).
//
// Purely synchronous bookkeeping: callers charge latencies. Addresses are
// full virtual addresses; the cache operates on line granularity.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace nwc::mem {

struct CacheParams {
  std::uint64_t size_bytes = 64 * 1024;
  std::uint32_t line_bytes = 32;
  std::uint32_t assoc = 2;
};

/// Outcome of a cache access.
struct CacheOutcome {
  bool hit = false;
  bool evicted = false;        // a valid line was displaced
  bool evicted_dirty = false;  // ... and it needs a writeback
  std::uint64_t evicted_line = 0;
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheParams& p);

  /// Looks up `addr`; on miss, fills the line (evicting LRU). A write marks
  /// the line dirty.
  CacheOutcome access(std::uint64_t addr, bool write);

  /// Probe without side effects.
  bool contains(std::uint64_t addr) const;

  /// `access()` restricted to the hit case: on hit, identical side effects
  /// (LRU update, dirty bit, hit counter) and returns true; on miss leaves
  /// all state and counters untouched. Lets the access fast path fuse its
  /// containment gate with the actual access (one set probe, not two).
  bool accessIfHit(std::uint64_t addr, bool write);

  /// `access()` restricted to the miss case, for a line the caller knows is
  /// absent (a preceding `accessIfHit` or `contains` said so): counts the
  /// miss and fills the line over the same victim `access()` would pick,
  /// the last invalid way in index order, else the least recently used.
  CacheOutcome fill(std::uint64_t addr, bool write);

  /// Invalidates one line; returns true if the line was present and dirty.
  bool invalidateLine(std::uint64_t line_addr);

  /// Invalidates every line of the page starting at `page_base`.
  /// Returns the number of dirty lines dropped.
  int invalidatePage(std::uint64_t page_base, std::uint64_t page_bytes);

  void flushAll();

  std::uint64_t lineBytes() const { return params_.line_bytes; }
  std::uint64_t lineOf(std::uint64_t addr) const {
    return line_shift_ >= 0 ? addr >> line_shift_ : addr / params_.line_bytes;
  }

  const sim::RatioCounter& hitStats() const { return hits_; }
  sim::RatioCounter& hitStats() { return hits_; }

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;
    bool valid = false;
    bool dirty = false;
  };

  // Power-of-two geometries (every standard config) take the shift/mask
  // path; hardware divides showed up in access-path profiles.
  std::uint64_t setOf(std::uint64_t line) const {
    return set_shift_ >= 0 ? line & set_mask_ : line % num_sets_;
  }
  std::uint64_t tagOf(std::uint64_t line) const {
    return set_shift_ >= 0 ? line >> set_shift_ : line / num_sets_;
  }
  /// The valid way holding `line`, or nullptr.
  const Way* find(std::uint64_t line) const {
    const Way* base = &ways_[setOf(line) * params_.assoc];
    const std::uint64_t tag = tagOf(line);
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
      if (base[w].valid && base[w].tag == tag) return &base[w];
    }
    return nullptr;
  }
  Way* find(std::uint64_t line) {
    return const_cast<Way*>(std::as_const(*this).find(line));
  }

  CacheParams params_;
  std::uint64_t num_sets_;
  int line_shift_ = -1;  // log2(line_bytes), or -1 if not a power of two
  int set_shift_ = -1;   // log2(num_sets_), or -1 if not a power of two
  std::uint64_t set_mask_ = 0;
  std::vector<Way> ways_;  // num_sets_ * assoc, row-major by set
  std::uint64_t tick_ = 0;
  sim::RatioCounter hits_;
};

// Defined here so the resident-reference fast path (Machine::tryFastAccess,
// tens of millions of calls in a paging run) inlines its probes and fills.
inline bool SetAssocCache::contains(std::uint64_t addr) const {
  return find(lineOf(addr)) != nullptr;
}

inline bool SetAssocCache::accessIfHit(std::uint64_t addr, bool write) {
  Way* way = find(lineOf(addr));
  if (!way) return false;
  way->lru = ++tick_;
  way->dirty = way->dirty || write;
  hits_.hit();
  return true;
}

inline CacheOutcome SetAssocCache::fill(std::uint64_t addr, bool write) {
  const std::uint64_t line = lineOf(addr);
  const std::uint64_t set = setOf(line);
  Way* base = &ways_[set * params_.assoc];
  Way* victim = base;
  for (std::uint32_t w = 0; w < params_.assoc; ++w) {
    Way& way = base[w];
    if (!way.valid) {
      victim = &way;
    } else if (victim->valid && way.lru < victim->lru) {
      victim = &way;
    }
  }

  hits_.miss();
  CacheOutcome out;
  if (victim->valid) {
    out.evicted = true;
    out.evicted_dirty = victim->dirty;
    out.evicted_line = victim->tag * num_sets_ + set;
  }
  victim->valid = true;
  victim->dirty = write;
  victim->tag = tagOf(line);
  victim->lru = ++tick_;
  return out;
}

}  // namespace nwc::mem
