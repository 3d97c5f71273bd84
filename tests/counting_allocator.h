// Counting replacement of the global allocation functions, shared by the
// tests that prove a code path allocates nothing (matcher_alloc_test) or
// releases everything it allocated (query_service_admission_test,
// query_service_chaos_test).
//
// Replacement allocation functions may not be inline, so this header holds
// their definitions: include it from exactly one translation unit of a test
// executable. Every new form allocates through CountedAlloc and every
// delete form, plain, array, sized or aligned, releases through
// CountedFree, which calls std::free directly; so all news and deletes
// pair, and GCC sees no mismatched new/delete.

#ifndef AMBER_TESTS_COUNTING_ALLOCATOR_H_
#define AMBER_TESTS_COUNTING_ALLOCATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace amber {
namespace testutil {

/// Allocations made so far, by every operator new form.
inline std::atomic<uint64_t> g_total_allocs{0};
/// Allocations not yet released (news minus deletes of non-null pointers).
inline std::atomic<int64_t> g_live_allocs{0};

inline void* CountedAlloc(std::size_t size, std::size_t align) {
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size ? size : 1);
  } else if (posix_memalign(&p, align, size ? size : 1) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  g_total_allocs.fetch_add(1, std::memory_order_relaxed);
  g_live_allocs.fetch_add(1, std::memory_order_relaxed);
  return p;
}

inline void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live_allocs.fetch_sub(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace testutil
}  // namespace amber

void* operator new(std::size_t size) {
  return amber::testutil::CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return amber::testutil::CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return amber::testutil::CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return amber::testutil::CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { amber::testutil::CountedFree(p); }
void operator delete[](void* p) noexcept { amber::testutil::CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept {
  amber::testutil::CountedFree(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  amber::testutil::CountedFree(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  amber::testutil::CountedFree(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  amber::testutil::CountedFree(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  amber::testutil::CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  amber::testutil::CountedFree(p);
}

#endif  // AMBER_TESTS_COUNTING_ALLOCATOR_H_
