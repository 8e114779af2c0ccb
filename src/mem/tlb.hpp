// Fully-associative LRU translation lookaside buffer model.
#pragma once

#include <cstdint>
#include <string>

#include "sim/page_lru.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace nwc::obs {
class MetricsRegistry;
}

namespace nwc::mem {

class Tlb {
 public:
  explicit Tlb(int entries = 64) : entries_(entries), lru_(entries) {}

  /// True if `page` has a cached translation (counts toward hit stats and
  /// refreshes LRU).
  bool lookup(sim::PageId page) {
    if (lru_.touch(page)) {
      hits_.hit();
      return true;
    }
    hits_.miss();
    return false;
  }

  /// Installs a translation, evicting the LRU entry if full. Returns the
  /// evicted page, or kNoPage when nothing was evicted.
  sim::PageId insert(sim::PageId page) {
    if (lru_.touch(page)) return sim::kNoPage;
    sim::PageId victim = sim::kNoPage;
    if (lru_.size() >= entries_) {
      victim = lru_.lru();
      lru_.erase(victim);
    }
    lru_.pushMru(page);
    return victim;
  }

  /// Drops a translation (TLB-shootdown on rights downgrade).
  /// Returns true if the entry was present.
  bool invalidate(sim::PageId page) { return lru_.erase(page); }

  void flush() { lru_.clear(); }

  /// Calls `f(page)` for every cached translation, LRU first.
  template <class F>
  void forEach(F&& f) const {
    lru_.forEach(f);
  }

  int size() const { return lru_.size(); }
  int capacity() const { return entries_; }
  const sim::RatioCounter& hitStats() const { return hits_; }

  /// Registers TLB statistics under `prefix` (e.g. "tlb3.").
  void publishMetrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  int entries_;
  sim::PageLruList lru_;
  sim::RatioCounter hits_;
};

}  // namespace nwc::mem
