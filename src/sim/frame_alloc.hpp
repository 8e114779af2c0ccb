// Coroutine-frame recycler.
//
// Every simulated process is a Task<> coroutine; hot paths (fault/swap
// flows, the I/O daemons' helpers) create and destroy many identical small
// frames per run. (Memory references reuse one persistent access coroutine
// per CPU and allocate none.) The promise-level operator new/delete below route
// those frames through per-thread size-class freelists, avoiding a
// malloc/free round trip (and the profiler's allocation-counting hook) per
// event.
//
// Thread safety: each freelist is thread_local and only ever touched by its
// own thread. A frame freed on a different thread than it was allocated on
// simply parks in the freeing thread's list — blocks migrate between
// threads only through a full free/alloc cycle, so no synchronization is
// needed beyond what already ordered the coroutine's destruction.
//
// Under AddressSanitizer a parked frame is poisoned until it is reused.
#pragma once

#include <cstddef>

namespace nwc::sim::detail {

void* allocFrame(std::size_t n);
void freeFrame(void* p, std::size_t n) noexcept;

/// Frames currently parked on the calling thread's freelists (test hook).
std::size_t parkedFrameCount();

}  // namespace nwc::sim::detail
