#include "apps/host_vector.hpp"

#include <algorithm>
#include <array>
#include <new>

namespace nwc::apps::host_blocks {

namespace {

constexpr std::size_t kMinBytes = std::size_t{1} << 20;
constexpr std::size_t kMaxBlocks = 8;
constexpr std::size_t kMaxBytes = std::size_t{64} << 20;  // per thread

// Blocks oldest first; the most recently freed block is last.
struct Cache {
  struct Block {
    std::size_t bytes;
    void* p;
  };
  std::array<Block, kMaxBlocks> blocks{};
  std::size_t count = 0;
  std::size_t bytes = 0;

  void* take(std::size_t i) {
    void* p = blocks[i].p;
    bytes -= blocks[i].bytes;
    std::copy(blocks.begin() + i + 1, blocks.begin() + count, blocks.begin() + i);
    --count;
    return p;
  }

  ~Cache() {
    while (count > 0) ::operator delete(take(0));
  }
};

thread_local Cache cache;

}  // namespace

void* acquire(std::size_t bytes) {
  if (bytes >= kMinBytes) {
    for (std::size_t i = cache.count; i-- > 0;) {
      if (cache.blocks[i].bytes == bytes) return cache.take(i);
    }
  }
  return ::operator new(bytes);
}

void release(void* p, std::size_t bytes) noexcept {
  if (bytes < kMinBytes || bytes > kMaxBytes) {
    ::operator delete(p);
    return;
  }
  while (cache.count == kMaxBlocks || cache.bytes + bytes > kMaxBytes) {
    ::operator delete(cache.take(0));
  }
  cache.blocks[cache.count++] = Cache::Block{bytes, p};
  cache.bytes += bytes;
}

}  // namespace nwc::apps::host_blocks
