// Disk controller cache model.
//
// A handful of page-sized slots (Table 1: 16 KB => 4 slots). Each slot is
// Free, Clean (read/prefetch data or already-written-back data) or Dirty
// (a staged swap-out). Writes have preference over prefetches: a write may
// evict a Clean slot, a prefetch may never evict a Dirty one. Dirty slots
// drain to the platters in arrival order, and consecutive page numbers
// present at drain time are combined into a single disk write (the paper's
// "write combining", max factor = slot count).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace nwc::obs {
class MetricsRegistry;
}

namespace nwc::io {

class DiskCache {
 public:
  explicit DiskCache(int slots);

  /// True if `page` is buffered (Clean or Dirty). Refreshes LRU.
  bool lookup(sim::PageId page);

  /// Probe without stats/LRU side effects.
  bool contains(sim::PageId page) const;

  /// True if a swap-out could be accepted right now (a non-Dirty slot exists
  /// or the page is already buffered).
  bool hasRoomForWrite(sim::PageId page) const;

  /// Stages a swap-out. Returns false (NACK) if every slot is Dirty and the
  /// page is not already buffered.
  bool insertDirty(sim::PageId page);

  /// Inserts prefetched/read data; silently dropped when only Dirty slots
  /// are left (writes have priority over prefetches).
  void insertClean(sim::PageId page);

  /// Number of slots a prefetch burst may fill right now.
  int cleanableSlots() const;

  /// Oldest Dirty page (FIFO by staging order), if any.
  std::optional<sim::PageId> oldestDirty() const;

  /// Collects the drain batch: anchored at the oldest Dirty page, extended
  /// over Dirty pages with consecutive page numbers in both directions. The
  /// batch stays Dirty until `completeWrite` is called.
  std::vector<sim::PageId> planWriteBatch() const;

  /// Marks the batch pages Clean (data now also on the platters).
  void completeWrite(const std::vector<sim::PageId>& batch);

  /// Downgrades a Dirty page to Clean without writing (the NWCache victim
  /// path re-mapped the page to memory; the disk write is cancelled).
  /// Returns true if the page was Dirty.
  bool cancelWrite(sim::PageId page);

  /// Drops a page entirely (any state). Returns true if present.
  bool drop(sim::PageId page);

  int slots() const { return static_cast<int>(slots_.size()); }
  int dirtyCount() const;
  int freeCount() const;
  const sim::RatioCounter& hitStats() const { return hits_; }

  /// Registers controller-cache statistics under `prefix` (e.g.
  /// "disk0.cache.").
  void publishMetrics(obs::MetricsRegistry& reg, const std::string& prefix) const;

 private:
  enum class State { kFree, kClean, kDirty };
  struct Slot {
    State state = State::kFree;
    sim::PageId page = sim::kNoPage;
    std::uint64_t stamp = 0;  // staging order for Dirty, LRU for Clean
  };

  Slot* find(sim::PageId page);
  const Slot* find(sim::PageId page) const;
  Slot* victimForWrite();
  Slot* victimForPrefetch();

  std::vector<Slot> slots_;
  std::uint64_t tick_ = 0;
  sim::RatioCounter hits_;
};

}  // namespace nwc::io
