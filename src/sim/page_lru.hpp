// Bounded LRU set of pages with O(1) touch/insert/erase/victim.
//
// An intrusive doubly-linked list over a fixed node array (indices, not
// pointers — reusable and relocation-safe) with a FlatPageMap index. Backs
// the TLB and the per-node frame pool, which both used to pay a hash-bucket
// walk (and, for the TLB, a full O(n) min-scan per eviction) on the hottest
// path in the simulator. Recency order is total (every touch moves the page
// to MRU), so victim selection is exactly the unique least-recently-used
// page — identical behavior to the tick-based implementations it replaced.
#pragma once

#include <cassert>
#include <vector>

#include "sim/flat_page_map.hpp"
#include "sim/types.hpp"

namespace nwc::sim {

class PageLruList {
 public:
  explicit PageLruList(int capacity = 0) { reset(capacity); }

  /// Clears and re-sizes for at most `capacity` pages.
  void reset(int capacity) {
    nodes_.assign(static_cast<std::size_t>(capacity), Node{});
    index_.reset(static_cast<std::size_t>(capacity));
    free_.clear();
    free_.reserve(nodes_.size());
    for (int i = capacity - 1; i >= 0; --i) free_.push_back(i);
    head_ = tail_ = kNil;
  }

  void clear() { reset(static_cast<int>(nodes_.size())); }

  int size() const { return static_cast<int>(index_.size()); }
  int capacity() const { return static_cast<int>(nodes_.size()); }
  bool empty() const { return head_ == kNil; }
  bool contains(PageId page) const { return index_.contains(page); }

  /// Moves `page` to MRU. Returns false (and does nothing) if absent.
  bool touch(PageId page) {
    // Consecutive references overwhelmingly hit the same page (many lines
    // per page): when it is already MRU the move is a no-op — skip the
    // hash probe entirely.
    if (tail_ != kNil && nodes_[static_cast<std::size_t>(tail_)].page == page) return true;
    const int* n = index_.find(page);
    if (n == nullptr) return false;
    moveToTail(*n);
    return true;
  }

  /// Inserts `page` at MRU. Precondition: !contains(page), size()<capacity.
  void pushMru(PageId page) {
    assert(!free_.empty() && "PageLruList over capacity");
    const int n = free_.back();
    free_.pop_back();
    nodes_[static_cast<std::size_t>(n)].page = page;
    linkTail(n);
    index_.set(page, n);
  }

  /// Removes `page`; returns false if absent.
  bool erase(PageId page) {
    const int* n = index_.find(page);
    if (n == nullptr) return false;
    const int i = *n;
    unlink(i);
    free_.push_back(i);
    index_.erase(page);
    return true;
  }

  /// Calls `f(page)` for every page, LRU first.
  template <class F>
  void forEach(F&& f) const {
    for (int n = head_; n != kNil; n = nodes_[static_cast<std::size_t>(n)].next) {
      f(nodes_[static_cast<std::size_t>(n)].page);
    }
  }

  /// Least-recently-used page; kNoPage when empty.
  PageId lru() const {
    return head_ == kNil ? kNoPage : nodes_[static_cast<std::size_t>(head_)].page;
  }

 private:
  static constexpr int kNil = -1;

  struct Node {
    PageId page = kNoPage;
    int prev = kNil;
    int next = kNil;
  };

  void linkTail(int n) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    node.prev = tail_;
    node.next = kNil;
    if (tail_ != kNil)
      nodes_[static_cast<std::size_t>(tail_)].next = n;
    else
      head_ = n;
    tail_ = n;
  }

  void unlink(int n) {
    Node& node = nodes_[static_cast<std::size_t>(n)];
    if (node.prev != kNil)
      nodes_[static_cast<std::size_t>(node.prev)].next = node.next;
    else
      head_ = node.next;
    if (node.next != kNil)
      nodes_[static_cast<std::size_t>(node.next)].prev = node.prev;
    else
      tail_ = node.prev;
  }

  void moveToTail(int n) {
    if (tail_ == n) return;
    unlink(n);
    linkTail(n);
  }

  std::vector<Node> nodes_;
  std::vector<int> free_;
  FlatPageMap index_;
  int head_ = kNil;
  int tail_ = kNil;
};

}  // namespace nwc::sim
