// Calendar queue for the discrete-event engine.
//
// Two tiers:
//  - A hashed timing wheel (Varghese & Lauck) of one FIFO per tick over the
//    kWindow ticks starting at the last popped tick. An event scheduled
//    inside the window appends to its tick's FIFO in O(1); the first
//    occupied slot is found through a 64-bit occupancy bitmap per 64 slots
//    plus one summary word over those bitmaps. Coherence fills, bus and mesh
//    waits and same-tick wake storms (Signal::notifyAll, barrier releases)
//    all land here.
//  - A 4-ary min-heap on (tick, seq) for events beyond the window (disk
//    seeks, sampler periods): shallower than a binary heap, with
//    hole-insertion sifts.
//
// pop() takes the smaller (tick, seq) of the wheel's first entry and the
// heap top. Sequence numbers grow with push order, so each slot's FIFO is
// already in seq order and no entry ever migrates between tiers. Pop order
// is exactly global (tick, seq) ascending — the same total order a single
// heap produces — so simulated results are byte-identical.
#pragma once

#include <array>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace nwc::sim {

struct CalEntry {
  Tick t;
  std::uint64_t seq;
  std::coroutine_handle<> h;
};

class CalendarQueue {
 public:
  /// Ticks covered by the wheel, counted from the last popped tick.
  static constexpr Tick kWindow = 4096;

  CalendarQueue() { clear(); }

  bool empty() const { return size() == 0; }

  std::size_t size() const { return wheel_size_ + heap_.size(); }

  /// Inserts (t, seq, h). `seq` values must be strictly increasing across
  /// calls (the engine's schedule counter guarantees it); ties on `t` pop in
  /// seq order.
  void push(Tick t, std::uint64_t seq, std::coroutine_handle<> h) {
    // Unsigned distance: a tick before the base wraps past the window and
    // takes the heap, which orders anything.
    if (t - base_ < kWindow) {
      wheelPush(CalEntry{t, seq, h});
    } else {
      heapPush(CalEntry{t, seq, h});
    }
  }

  /// Tick of the next entry, kTickMax when empty.
  Tick nextTick() const {
    return heap_.empty() || wheel_min_ < heap_[0].t ? wheel_min_ : heap_[0].t;
  }

  /// Removes and returns the next entry. Pre: !empty().
  CalEntry pop() {
    const bool from_wheel =
        wheel_size_ != 0 &&
        (heap_.empty() || entryLess(nodes_[head_[slotOf(wheel_min_)]].e, heap_[0]));
    const CalEntry e = from_wheel ? wheelPopMin() : heapPopTop();
    if (e.t > base_) base_ = e.t;
    return e;
  }

  /// Drops every pending entry (handles are non-owning).
  void clear() {
    nodes_.clear();
    free_ = kNil;
    bits_.fill(0);
    summary_ = 0;
    wheel_size_ = 0;
    wheel_min_ = kTickMax;
    base_ = 0;
    heap_.clear();
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr std::size_t kMask = kWindow - 1;
  static constexpr std::size_t kWords = kWindow / 64;
  static_assert(std::has_single_bit(kWindow) && kWords <= 64,
                "the summary word covers at most 64 bitmap words");

  struct Node {
    CalEntry e;
    std::uint32_t next;
  };

  static bool entryLess(const CalEntry& a, const CalEntry& b) {
    return a.t != b.t ? a.t < b.t : a.seq < b.seq;
  }

  static std::size_t slotOf(Tick t) { return static_cast<std::size_t>(t) & kMask; }

  void wheelPush(const CalEntry& e) {
    std::uint32_t n;
    if (free_ != kNil) {
      n = free_;
      free_ = nodes_[n].next;
      nodes_[n] = Node{e, kNil};
    } else {
      n = static_cast<std::uint32_t>(nodes_.size());
      nodes_.push_back(Node{e, kNil});
    }
    const std::size_t s = slotOf(e.t);
    const std::uint64_t bit = std::uint64_t{1} << (s & 63);
    if ((bits_[s >> 6] & bit) == 0) {
      head_[s] = n;
      bits_[s >> 6] |= bit;
      summary_ |= std::uint64_t{1} << (s >> 6);
    } else {
      nodes_[tail_[s]].next = n;
    }
    tail_[s] = n;
    ++wheel_size_;
    if (e.t < wheel_min_) wheel_min_ = e.t;
  }

  CalEntry wheelPopMin() {
    const std::size_t s = slotOf(wheel_min_);
    const std::uint32_t n = head_[s];
    const CalEntry e = nodes_[n].e;
    const bool emptied = n == tail_[s];
    head_[s] = nodes_[n].next;
    nodes_[n].next = free_;
    free_ = n;
    --wheel_size_;
    if (emptied) {
      bits_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
      if (bits_[s >> 6] == 0) summary_ &= ~(std::uint64_t{1} << (s >> 6));
      if (wheel_size_ == 0) {
        wheel_min_ = kTickMax;
      } else {
        // Every wheel entry lies in [e.t, e.t + kWindow), so circular slot
        // distance from s is tick distance.
        const std::size_t next = nextOccupied((s + 1) & kMask);
        wheel_min_ = e.t + ((next - s) & kMask);
      }
    }
    return e;
  }

  /// First occupied slot at or after `from` in circular order. Pre: the
  /// wheel is not empty.
  std::size_t nextOccupied(std::size_t from) const {
    const std::size_t w = from >> 6;
    const std::uint64_t here = bits_[w] & (~std::uint64_t{0} << (from & 63));
    if (here != 0) return (w << 6) | static_cast<std::size_t>(std::countr_zero(here));
    const std::uint64_t later =
        w + 1 < 64 ? summary_ & (~std::uint64_t{0} << (w + 1)) : 0;
    // Nothing after `from`: wrap to the lowest occupied word, which is at or
    // below w (word w holds only bits below `from` by now).
    const std::size_t w2 =
        static_cast<std::size_t>(std::countr_zero(later != 0 ? later : summary_));
    return (w2 << 6) | static_cast<std::size_t>(std::countr_zero(bits_[w2]));
  }

  void heapPush(const CalEntry& e) {
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t p = (i - 1) >> 2;
      if (!entryLess(e, heap_[p])) break;
      heap_[i] = heap_[p];
      i = p;
    }
    heap_[i] = e;
  }

  CalEntry heapPopTop() {
    const CalEntry top = heap_[0];
    const CalEntry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      std::size_t i = 0;
      const std::size_t n = heap_.size();
      for (;;) {
        const std::size_t c = 4 * i + 1;
        if (c >= n) break;
        std::size_t m = c;
        const std::size_t end = c + 4 < n ? c + 4 : n;
        for (std::size_t j = c + 1; j < end; ++j) {
          if (entryLess(heap_[j], heap_[m])) m = j;
        }
        if (!entryLess(heap_[m], last)) break;
        heap_[i] = heap_[m];
        i = m;
      }
      heap_[i] = last;
    }
    return top;
  }

  // Wheel: per-slot FIFOs threaded through a node pool with a free list.
  // The occupancy bits alone say which slots hold entries; head_ and tail_
  // are meaningful only for those, so neither is ever cleared and a new
  // queue touches only the bitmaps.
  std::vector<Node> nodes_;
  std::uint32_t free_ = kNil;
  std::array<std::uint32_t, kWindow> head_;  // first node of each slot's FIFO
  std::array<std::uint32_t, kWindow> tail_;  // last node of each slot's FIFO
  std::array<std::uint64_t, kWords> bits_;   // slot occupancy
  std::uint64_t summary_ = 0;                // bit w: bits_[w] != 0
  std::size_t wheel_size_ = 0;
  Tick wheel_min_ = kTickMax;  // tick of the first occupied slot
  Tick base_ = 0;              // last popped tick; only moves forward

  std::vector<CalEntry> heap_;  // 4-ary min-heap on (t, seq), far events
};

}  // namespace nwc::sim
