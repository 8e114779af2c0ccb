// Host arrays of the application kernels, reused from one run to the next.
//
// Every run allocates its kernel's host arrays anew: the backing data of
// each MappedFile and the kernel's host reference copy, megabytes each (sor
// at scale 1 holds two 2.5 MiB grids). Handed back to malloc at the end of a
// run, they are placed afresh in the next one, and the small objects that
// outlive a run drift into the holes they leave. Now and then a big array
// no longer fits its old hole: the heap grows by its size while the old
// pages stay resident, and the peak RSS of back-to-back runs jumps by
// 1.5 MiB in about a third of sor's seeds. HostVector's allocator keeps
// freed blocks of 1 MiB or more in a small per-thread cache and hands one
// back to the next request of the same size, so repeated runs on a thread
// reuse the same memory. A reused block is initialised like a fresh one
// (std::vector value-initialises), so no run sees another run's values.
#pragma once

#include <cstddef>
#include <vector>

namespace nwc::apps {

namespace host_blocks {

/// `bytes` of storage: the most recently cached block of exactly that size
/// when there is one, else ::operator new.
void* acquire(std::size_t bytes);

/// Returns a block from acquire(). Blocks of 1 MiB or more are kept for
/// reuse; the thread keeps the 8 most recent, 64 MiB at most, and deletes
/// older ones with ::operator delete. Smaller blocks are deleted at once.
void release(void* p, std::size_t bytes) noexcept;

}  // namespace host_blocks

template <typename T>
struct RecyclingAllocator {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  using value_type = T;

  RecyclingAllocator() = default;
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U>&) {}

  T* allocate(std::size_t n) { return static_cast<T*>(host_blocks::acquire(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) noexcept { host_blocks::release(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const RecyclingAllocator<U>&) const { return true; }
};

template <typename T>
using HostVector = std::vector<T, RecyclingAllocator<T>>;

}  // namespace nwc::apps
