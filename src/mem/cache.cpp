#include "mem/cache.hpp"

#include <bit>
#include <cassert>

namespace nwc::mem {

SetAssocCache::SetAssocCache(const CacheParams& p) : params_(p) {
  assert(p.line_bytes > 0 && p.assoc > 0);
  const std::uint64_t lines = p.size_bytes / p.line_bytes;
  num_sets_ = lines / p.assoc;
  if (num_sets_ == 0) num_sets_ = 1;
  ways_.resize(num_sets_ * p.assoc);
  if (std::has_single_bit(static_cast<std::uint64_t>(p.line_bytes))) {
    line_shift_ = std::countr_zero(static_cast<std::uint64_t>(p.line_bytes));
  }
  if (std::has_single_bit(num_sets_)) {
    set_shift_ = std::countr_zero(num_sets_);
    set_mask_ = num_sets_ - 1;
  }
}

CacheOutcome SetAssocCache::access(std::uint64_t addr, bool write) {
  if (accessIfHit(addr, write)) return CacheOutcome{.hit = true};
  return fill(addr, write);
}

bool SetAssocCache::invalidateLine(std::uint64_t line_addr) {
  Way* way = find(line_addr);
  if (!way) return false;
  const bool dirty = way->dirty;
  way->valid = false;
  way->dirty = false;
  return dirty;
}

int SetAssocCache::invalidatePage(std::uint64_t page_base, std::uint64_t page_bytes) {
  int dirty = 0;
  for (std::uint64_t a = page_base; a < page_base + page_bytes; a += params_.line_bytes) {
    if (invalidateLine(lineOf(a))) ++dirty;
  }
  return dirty;
}

void SetAssocCache::flushAll() {
  for (auto& w : ways_) {
    w.valid = false;
    w.dirty = false;
  }
}

}  // namespace nwc::mem
