#include "mem/directory.hpp"

#include <algorithm>
#include <bit>

namespace nwc::mem {

Directory::Directory(int num_nodes) : num_nodes_(num_nodes) { (void)num_nodes_; }

Directory::Entry& Directory::track(std::uint64_t line) {
  const std::uint64_t key = line >> kChunkShift;
  std::uint32_t chunk;
  if (const std::uint32_t* c = index_.find(key)) {
    chunk = *c;
  } else {
    if (free_chunks_.empty()) {
      chunk = static_cast<std::uint32_t>(chunks_.size());
      chunks_.emplace_back();
    } else {
      chunk = free_chunks_.back();
      free_chunks_.pop_back();
    }
    index_.getOrInsert(key) = chunk;
  }
  Chunk& c = chunks_[chunk];
  Entry& e = c.lines[line & kChunkMask];
  if (e.sharers == 0) {
    ++c.live;
    ++tracked_;
  }
  return e;
}

void Directory::untrack(Entry& e, std::uint32_t chunk, std::uint64_t key) {
  e = Entry{};
  --tracked_;
  if (--chunks_[chunk].live == 0) {
    index_.erase(key);
    free_chunks_.push_back(chunk);
  }
}

CoherenceActions Directory::onRead(sim::NodeId n, std::uint64_t line) {
  CoherenceActions a;
  Entry& e = track(line);
  if (e.owner != sim::kNoNode && e.owner != n) {
    a.owner_flush = true;
    a.owner = e.owner;
    remote_dirty_.hit();
  } else {
    remote_dirty_.miss();
  }
  e.owner = sim::kNoNode;  // downgraded to shared
  e.sharers |= std::uint64_t{1} << n;
  return a;
}

CoherenceActions Directory::onWrite(sim::NodeId n, std::uint64_t line) {
  CoherenceActions a;
  Entry& e = track(line);
  if (e.owner != sim::kNoNode && e.owner != n) {
    a.owner_flush = true;
    a.owner = e.owner;
  }
  const std::uint64_t others = e.sharers & ~(std::uint64_t{1} << n);
  a.invalidate_mask = others;
  a.invalidations = std::popcount(others);
  e.sharers = std::uint64_t{1} << n;
  e.owner = n;
  return a;
}

void Directory::onWriteback(sim::NodeId n, std::uint64_t line) {
  const std::uint64_t key = line >> kChunkShift;
  const std::uint32_t* c = index_.find(key);
  if (!c) return;
  const std::uint32_t chunk = *c;
  Entry& e = chunks_[chunk].lines[line & kChunkMask];
  if (e.sharers == 0) return;
  if (e.owner == n) e.owner = sim::kNoNode;
  e.sharers &= ~(std::uint64_t{1} << n);
  if (e.sharers == 0) untrack(e, chunk, key);
}

std::uint64_t Directory::dropPage(std::uint64_t first_line, std::uint64_t lines) {
  std::uint64_t mask = 0;
  const std::uint64_t end = first_line + lines;
  for (std::uint64_t l = first_line; l < end;) {
    const std::uint64_t key = l >> kChunkShift;
    const std::uint64_t stop = std::min(end, (key + 1) << kChunkShift);
    if (const std::uint32_t* c = index_.find(key)) {
      const std::uint32_t chunk = *c;
      for (; l < stop; ++l) {
        Entry& e = chunks_[chunk].lines[l & kChunkMask];
        if (e.sharers == 0) continue;
        mask |= e.sharers;
        if (e.owner != sim::kNoNode) mask |= std::uint64_t{1} << e.owner;
        untrack(e, chunk, key);
      }
    }
    l = stop;
  }
  return mask;
}

}  // namespace nwc::mem
