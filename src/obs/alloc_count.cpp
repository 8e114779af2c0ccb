// Allocation counting for the self-profiler (obs/profiler.hpp): the
// malloc-backed global operator-new forms are replaced with versions that
// bump two thread-local counters, and the matching operator-delete forms
// with free() so the new/delete pairing is explicit. Aligned-new forms are
// not replaced (their default implementations pair among themselves), so
// over-aligned allocations go uncounted.
//
// The counters count unconditionally (the bump is ~1ns and contention-free)
// so the "profiling disabled performs zero allocations" property is itself
// testable. This file holds no container code on purpose: GCC inlines the
// replaced operator delete into any container code in the same translation
// unit and then reports -Wmismatched-new-delete on the free().
#include <cstdint>
#include <cstdlib>
#include <new>

#include "obs/profiler.hpp"

namespace {

thread_local std::uint64_t tls_alloc_count = 0;
thread_local std::uint64_t tls_alloc_bytes = 0;

void* countedAlloc(std::size_t n) noexcept {
  for (;;) {
    void* p = std::malloc(n != 0 ? n : 1);
    if (p != nullptr) {
      ++tls_alloc_count;
      tls_alloc_bytes += n;
      return p;
    }
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) return nullptr;
    h();
  }
}

}  // namespace

namespace nwc::obs::prof {

std::uint64_t threadAllocCount() { return tls_alloc_count; }
std::uint64_t threadAllocBytes() { return tls_alloc_bytes; }

}  // namespace nwc::obs::prof

void* operator new(std::size_t n) {
  void* p = countedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t n) {
  void* p = countedAlloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return countedAlloc(n);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return countedAlloc(n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
