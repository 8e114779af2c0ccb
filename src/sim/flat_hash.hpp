// Growable open-addressing hash map from uint64 keys to small values.
//
// Built for hot bookkeeping tables (the coherence directory, the
// PageLruList index behind the TLB and frame pool) where
// std::unordered_map's per-bucket pointer chasing shows up in profiles:
// linear probing over one flat slot array, backward-shift deletion (no
// tombstones), growth by rehash at 50% load. Iteration order is never
// exposed, so determinism does not depend on the hash function.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace nwc::sim {

template <typename V>
class FlatHashU64 {
 public:
  static constexpr std::uint64_t kEmptyKey = ~0ull;

  explicit FlatHashU64(std::size_t initial_capacity = 64) {
    std::size_t cap = 16;
    while (cap < initial_capacity) cap <<= 1;
    slots_.assign(cap, Slot{kEmptyKey, V{}});
    mask_ = cap - 1;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    for (auto& s : slots_) s.key = kEmptyKey;
    size_ = 0;
  }

  /// Pointer to the mapped value, or nullptr. Valid until the next
  /// insert/erase.
  V* find(std::uint64_t key) {
    assert(key != kEmptyKey);
    std::size_t i = home(key);
    while (slots_[i].key != kEmptyKey) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  const V* find(std::uint64_t key) const {
    return const_cast<FlatHashU64*>(this)->find(key);
  }

  /// Value for `key`, default-constructed and inserted when absent
  /// (std::map-style operator[]).
  V& getOrInsert(std::uint64_t key) {
    assert(key != kEmptyKey);
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = home(key);
    while (slots_[i].key != kEmptyKey) {
      if (slots_[i].key == key) return slots_[i].value;
      i = (i + 1) & mask_;
    }
    slots_[i] = Slot{key, V{}};
    ++size_;
    return slots_[i].value;
  }

  bool erase(std::uint64_t key) {
    assert(key != kEmptyKey);
    std::size_t hole = home(key);
    for (;;) {
      if (slots_[hole].key == kEmptyKey) return false;
      if (slots_[hole].key == key) break;
      hole = (hole + 1) & mask_;
    }
    // Backward-shift: pull displaced entries into the hole so probe chains
    // stay intact without tombstones.
    std::size_t i = hole;
    for (;;) {
      i = (i + 1) & mask_;
      if (slots_[i].key == kEmptyKey) break;
      const std::size_t h = home(slots_[i].key);
      if (((i - h) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].key = kEmptyKey;
    --size_;
    return true;
  }

 private:
  struct Slot {
    std::uint64_t key;
    V value;
  };

  std::size_t home(std::uint64_t key) const {
    return (key * 0x9e3779b97f4a7c15ULL >> 32) & mask_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{kEmptyKey, V{}});
    mask_ = slots_.size() - 1;
    size_ = 0;
    for (const auto& s : old) {
      if (s.key != kEmptyKey) getOrInsert(s.key) = s.value;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace nwc::sim
