#include "vm/frame_pool.hpp"

#include <cassert>

namespace nwc::vm {

FramePool::FramePool(int total_frames, int min_free)
    : total_(total_frames), min_free_(min_free), free_(total_frames),
      lru_(total_frames) {
  assert(min_free_ >= 0 && min_free_ <= total_);
}

void FramePool::allocate(sim::PageId page) {
  consumeFrame();
  addResident(page);
}

void FramePool::consumeFrame() {
  assert(free_ > 0);
  --free_;
  ++allocations_;
}

void FramePool::addResident(sim::PageId page) {
  assert(!lru_.contains(page));
  lru_.pushMru(page);
}

bool FramePool::retire(sim::PageId page) {
  if (!lru_.erase(page)) return false;
  ++evictions_;
  return true;
}

void FramePool::releaseFrame() {
  assert(free_ < total_);
  ++free_;
}

bool FramePool::evictNow(sim::PageId page) {
  if (!retire(page)) return false;
  releaseFrame();
  return true;
}

std::optional<sim::PageId> FramePool::lruVictim() const {
  if (lru_.empty()) return std::nullopt;
  return lru_.lru();
}

}  // namespace nwc::vm
