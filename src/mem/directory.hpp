// Line-granularity MSI directory (DASH-like).
//
// Tracks, for every cached line, the owner (if modified) and sharer set.
// The directory is a synchronous bookkeeping structure: `onRead`/`onWrite`
// return the protocol actions required, and the machine model charges the
// corresponding bus/network latencies.
//
// Layout: entries live in dense chunks of 64 consecutive lines (one page at
// the default geometry), found through a small hash keyed by `line >> 6`.
// The lines of a page share one chunk, so a page's references stay in a few
// host cache lines and dropping a page walks one chunk. An entry with no
// sharers is untracked; a chunk returns to the free list when its last
// tracked line goes.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/flat_hash.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace nwc::mem {

/// Protocol actions the caller must pay for.
struct CoherenceActions {
  bool owner_flush = false;       // dirty copy must be fetched from `owner`
  sim::NodeId owner = sim::kNoNode;
  int invalidations = 0;          // number of remote sharer copies invalidated
  std::uint64_t invalidate_mask = 0;  // bit i set => node i must drop the line
};

class Directory {
 public:
  explicit Directory(int num_nodes);

  /// Node `n` reads `line`: becomes a sharer; a modified remote copy is
  /// downgraded to shared.
  CoherenceActions onRead(sim::NodeId n, std::uint64_t line);

  /// Node `n` writes `line`: becomes exclusive owner; all other copies are
  /// invalidated.
  CoherenceActions onWrite(sim::NodeId n, std::uint64_t line);

  /// Owner evicted a dirty line (writeback to memory).
  void onWriteback(sim::NodeId n, std::uint64_t line);

  /// Drops all state for the lines of a page (page swapped out / migrated).
  /// Returns the union mask of nodes that held any of the lines.
  std::uint64_t dropPage(std::uint64_t first_line, std::uint64_t lines);

  std::size_t trackedLines() const { return tracked_; }
  const sim::RatioCounter& remoteDirtyStats() const { return remote_dirty_; }

 private:
  struct Entry {
    std::uint64_t sharers = 0;      // bitmask of nodes with a copy; 0 = untracked
    sim::NodeId owner = sim::kNoNode;  // kNoNode unless modified
  };

  static constexpr int kChunkShift = 6;
  static constexpr std::uint64_t kChunkMask = (std::uint64_t{1} << kChunkShift) - 1;

  struct Chunk {
    std::array<Entry, kChunkMask + 1> lines;
    std::uint32_t live = 0;  // tracked lines in this chunk
  };

  /// Entry for `line`, counted as tracked (its chunk allocated) if it was not.
  Entry& track(std::uint64_t line);
  /// Clears a tracked entry; frees its chunk when that was its last line.
  void untrack(Entry& e, std::uint32_t chunk, std::uint64_t key);

  int num_nodes_;
  sim::FlatHashU64<std::uint32_t> index_;  // line >> kChunkShift -> chunks_ slot
  std::vector<Chunk> chunks_;
  std::vector<std::uint32_t> free_chunks_;
  std::size_t tracked_ = 0;
  sim::RatioCounter remote_dirty_;  // hit = read found remote-dirty line
};

}  // namespace nwc::mem
