// Per-node physical frame pool with LRU replacement (paper 3.1).
//
// The OS keeps at least `min_free` frames free per node; whenever the pool
// dips below that, the replacement daemon swaps out LRU resident pages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "sim/page_lru.hpp"
#include "sim/types.hpp"

namespace nwc::vm {

class FramePool {
 public:
  FramePool(int total_frames, int min_free);

  int totalFrames() const { return total_; }
  int freeFrames() const { return free_; }
  int minFree() const { return min_free_; }
  int residentCount() const { return lru_.size(); }

  /// True if the replacement daemon should be swapping pages out.
  bool belowReserve() const { return free_ < min_free_; }

  /// Claims a free frame for `page` (page becomes resident, MRU).
  /// Precondition: freeFrames() > 0.
  void allocate(sim::PageId page);

  /// Claims a free frame without registering residency (fetch in flight;
  /// the in-transit page must stay invisible to LRU victim selection).
  void consumeFrame();

  /// Registers `page` as resident (MRU) in a frame previously claimed with
  /// `consumeFrame()`.
  void addResident(sim::PageId page);

  /// Refreshes `page` to MRU position. No-op if not resident here.
  void touch(sim::PageId page) { lru_.touch(page); }

  /// Removes `page` from the resident set WITHOUT freeing its frame (the
  /// frame is reclaimed later, when the swap-out completes).
  /// Returns true if the page was resident here.
  bool retire(sim::PageId page);

  /// Returns a retired/consumed frame to the free list.
  void releaseFrame();

  /// Removes `page` and frees its frame immediately (clean replacement or
  /// instant ring swap-out).
  bool evictNow(sim::PageId page);

  /// LRU resident page, if any.
  std::optional<sim::PageId> lruVictim() const;

  bool isResident(sim::PageId page) const { return lru_.contains(page); }

  // --- statistics -----------------------------------------------------
  std::uint64_t allocations() const { return allocations_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  int total_;
  int min_free_;
  int free_;
  sim::PageLruList lru_;  // lru() = eviction victim, insertions at MRU
  std::uint64_t allocations_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace nwc::vm
