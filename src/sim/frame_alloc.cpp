#include "sim/frame_alloc.hpp"

#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define NWC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NWC_ASAN 1
#endif
#endif

#ifdef NWC_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace nwc::sim::detail {

namespace {

// A parked frame is poisoned under AddressSanitizer, so a use after free
// of a recycled frame is reported like one of a freed allocation.
#ifdef NWC_ASAN
inline void poison(void* p, std::size_t n) { ASAN_POISON_MEMORY_REGION(p, n); }
inline void unpoison(void* p, std::size_t n) { ASAN_UNPOISON_MEMORY_REGION(p, n); }
#else
inline void poison(void*, std::size_t) {}
inline void unpoison(void*, std::size_t) {}
#endif

constexpr std::size_t kGranule = 64;   // size-class width
constexpr std::size_t kBins = 17;      // classes up to 1 KiB (bin 1..16)
constexpr std::size_t kMaxPerBin = 256;  // parked-block cap per class

// 1-based size class; >= kBins means "too large, use plain new".
inline std::size_t binOf(std::size_t n) { return (n + kGranule - 1) / kGranule; }

struct FreeLists {
  void* head[kBins] = {};
  std::size_t count[kBins] = {};

  ~FreeLists() {
    for (std::size_t b = 0; b < kBins; ++b) {
      void* p = head[b];
      while (p != nullptr) {
        unpoison(p, b * kGranule);
        void* next = *static_cast<void**>(p);
        ::operator delete(p);
        p = next;
      }
    }
  }
};

thread_local FreeLists tls_lists;

}  // namespace

void* allocFrame(std::size_t n) {
  const std::size_t b = binOf(n);
  if (b < kBins) {
    FreeLists& fl = tls_lists;
    if (void* p = fl.head[b]) {
      unpoison(p, b * kGranule);
      fl.head[b] = *static_cast<void**>(p);
      --fl.count[b];
      return p;
    }
    return ::operator new(b * kGranule);
  }
  return ::operator new(n);
}

void freeFrame(void* p, std::size_t n) noexcept {
  const std::size_t b = binOf(n);
  if (b < kBins) {
    FreeLists& fl = tls_lists;
    if (fl.count[b] < kMaxPerBin) {
      *static_cast<void**>(p) = fl.head[b];
      poison(p, b * kGranule);
      fl.head[b] = p;
      ++fl.count[b];
      return;
    }
  }
  ::operator delete(p);
}

std::size_t parkedFrameCount() {
  std::size_t total = 0;
  for (std::size_t b = 0; b < kBins; ++b) total += tls_lists.count[b];
  return total;
}

}  // namespace nwc::sim::detail
