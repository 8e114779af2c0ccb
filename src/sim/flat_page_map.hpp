// Open-addressing hash map from PageId to a small integer slot index.
//
// Purpose-built for the simulator's bounded-capacity LRU structures (TLB,
// frame pool): capacity is fixed up front, keys are non-negative page ids,
// values are node indices. Linear probing at ≤50% load with backward-shift
// deletion (no tombstones), so a lookup touches one or two cache lines
// where std::unordered_map chases bucket pointers. Iteration order is never
// exposed — determinism does not depend on the hash.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace nwc::sim {

class FlatPageMap {
 public:
  explicit FlatPageMap(std::size_t max_entries = 0) { reset(max_entries); }

  /// Clears and re-sizes for at most `max_entries` live keys.
  void reset(std::size_t max_entries) {
    std::size_t cap = 16;
    while (cap < max_entries * 2) cap <<= 1;
    slots_.assign(cap, Slot{sim::kNoPage, 0});
    mask_ = cap - 1;
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  bool contains(PageId key) const { return findSlot(key) != kNotFound; }

  /// Pointer to the mapped value, or nullptr when absent. Valid until the
  /// next insert/erase.
  int* find(PageId key) {
    const std::size_t i = findSlot(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }
  const int* find(PageId key) const {
    const std::size_t i = findSlot(key);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }

  /// Inserts or overwrites. Precondition: size() < max_entries.
  void set(PageId key, int value) {
    assert(size_ * 2 < slots_.size() && "FlatPageMap over capacity");
    std::size_t i = home(key);
    while (slots_[i].key != sim::kNoPage && slots_[i].key != key)
      i = (i + 1) & mask_;
    if (slots_[i].key == sim::kNoPage) ++size_;
    slots_[i] = Slot{key, value};
  }

  bool erase(PageId key) {
    std::size_t hole = findSlot(key);
    if (hole == kNotFound) return false;
    // Backward-shift: walk the probe chain and pull displaced entries into
    // the hole so no tombstone is needed.
    std::size_t i = hole;
    for (;;) {
      i = (i + 1) & mask_;
      if (slots_[i].key == sim::kNoPage) break;
      const std::size_t h = home(slots_[i].key);
      if (((i - h) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].key = sim::kNoPage;
    --size_;
    return true;
  }

 private:
  struct Slot {
    PageId key;
    int value;
  };

  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  std::size_t home(PageId key) const {
    return (static_cast<std::uint64_t>(key) * 0x9e3779b97f4a7c15ULL >> 32) &
           mask_;
  }

  std::size_t findSlot(PageId key) const {
    std::size_t i = home(key);
    while (slots_[i].key != sim::kNoPage) {
      if (slots_[i].key == key) return i;
      i = (i + 1) & mask_;
    }
    return kNotFound;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace nwc::sim
