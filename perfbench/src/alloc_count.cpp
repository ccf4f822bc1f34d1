#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::heap {
namespace {

// Relaxed atomics: under the partitioned engine several worker threads
// allocate while counting is on; only the totals matter.
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void note(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(n, std::memory_order_relaxed);
  }
}

void* allocate(std::size_t n) {
  note(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  note(n);
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void start() {
  g_allocs.store(0, std::memory_order_relaxed);
  g_bytes.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_seq_cst);
}

Counts stop() {
  g_counting.store(false, std::memory_order_seq_cst);
  return Counts{g_allocs.load(std::memory_order_relaxed), g_bytes.load(std::memory_order_relaxed)};
}

}  // namespace perfbench::heap

void* operator new(std::size_t n) { return perfbench::heap::allocate(n); }
void* operator new[](std::size_t n) { return perfbench::heap::allocate(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::heap::allocate_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return perfbench::heap::allocate_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
