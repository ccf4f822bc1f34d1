// Size-class freelist arena for coroutine frames and packets.
//
// Every simulated process and every awaited sub-task allocates a coroutine
// frame; a barrier run creates and destroys them at event rate (one
// ValueTask frame per port receive, one per barrier rep per member). The
// general-purpose allocator handles that churn correctly but pays its full
// bookkeeping on every round trip. Frames, however, recur in a handful of
// fixed sizes — the same coroutine bodies are instantiated over and over —
// which is exactly the shape a size-class freelist serves best: free pushes
// the block onto the class's list, allocate pops it back, both O(1) with no
// header scans or synchronization.
//
// Lists are thread_local, so lanes of a partitioned run never contend. A
// block may be freed on a different thread than allocated it (a frame built
// by a worker lane can be destroyed by the coordinator at teardown); it
// simply joins the freeing thread's list and is recycled there.
//
// A list that runs dry is refilled with a whole slab of blocks (about
// 8 KiB), not one block per malloc. Blocks live as long as the process, and
// thousands of them malloc'd one by one would be scattered through the
// heap, pinning the memory freed around them: every later malloc-heavy
// phase slows (building a 4096-node cluster takes half as long again).
// Because any thread may free any block, no thread can tell when a slab is
// empty, so slabs are kept for the life of the process.
// A thread that exits hands its free blocks to a shared depot, and the next
// thread to run dry takes them from there, so pools that start and stop
// worker threads reuse the same memory instead of growing the arena.
//
// Task and ValueTask route their promise operator new/delete here, so the
// arena is transparent to every coroutine in the repository. net::Packet
// does the same: a packet in flight is one block from these lists, and a
// packet freed by the lane that received it joins that lane's list.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <mutex>
#include <new>

// Under AddressSanitizer a block on a free list is poisoned, so a use after
// free is reported even though the memory is not returned to the system,
// and every block is its own malloc (see kSlabBytes), so a leak is too.
#if defined(__SANITIZE_ADDRESS__)
#define NICBAR_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NICBAR_ARENA_ASAN 1
#endif
#endif
#if defined(NICBAR_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#define NICBAR_ARENA_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define NICBAR_ARENA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define NICBAR_ARENA_POISON(p, n) ((void)(p), (void)(n))
#define NICBAR_ARENA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace nicbar::sim::frame_arena {

// 16 size classes of 64-byte granularity cover frames up to 1 KiB; larger
// frames (rare: deeply-nested coroutines with big locals) fall through to
// the global allocator, marked by class index kOversize.
inline constexpr std::size_t kGranularity = 64;
inline constexpr std::size_t kClasses = 16;
inline constexpr std::size_t kMaxPooled = kGranularity * kClasses;
inline constexpr std::size_t kOversize = kClasses;
#if defined(NICBAR_ARENA_ASAN)
// One block per slab, so LeakSanitizer sees every block as its own chunk
// and reports a block that is never freed.
inline constexpr std::size_t kSlabBytes = 0;
#else
inline constexpr std::size_t kSlabBytes = 8192;
#endif

// Each block is prefixed by one max-aligned header word holding its class
// index (the next-block link while the block is free), so deallocate() needs
// no size argument from the caller.
inline constexpr std::size_t kHeader = alignof(std::max_align_t);

[[nodiscard]] inline void*& next_of(void* block) { return *static_cast<void**>(block); }

/// Free blocks of threads that have exited, by class. Never destroyed: a
/// thread's list may drain into it while statics are being torn down.
struct Depot {
  std::mutex mu;
  void* head[kClasses] = {};
};

inline Depot& depot() {
  static Depot* const d = new Depot;
  return *d;
}

struct FreeList {
  void* head[kClasses] = {};

  ~FreeList() {
    Depot& d = depot();
    const std::lock_guard<std::mutex> lock(d.mu);
    for (std::size_t c = 0; c < kClasses; ++c) {
      if (head[c] == nullptr) continue;
      void* tail = head[c];
      while (next_of(tail) != nullptr) tail = next_of(tail);
      next_of(tail) = d.head[c];
      d.head[c] = head[c];
    }
  }
};

inline FreeList& lists() {
  thread_local FreeList tl;
  return tl;
}

/// Refills an empty list: from the depot if an exited thread left blocks of
/// this class, else with a fresh slab.
inline void refill(FreeList& fl, std::size_t cls) {
  Depot& d = depot();
  {
    const std::lock_guard<std::mutex> lock(d.mu);
    if (d.head[cls] != nullptr) {
      fl.head[cls] = d.head[cls];
      d.head[cls] = nullptr;
      return;
    }
  }
  const std::size_t payload = (cls + 1) * kGranularity;
  const std::size_t block_bytes = kHeader + payload;
  const std::size_t n = kSlabBytes / block_bytes > 0 ? kSlabBytes / block_bytes : 1;
  char* slab = static_cast<char*>(std::malloc(n * block_bytes));
  if (slab == nullptr) throw std::bad_alloc{};
  for (std::size_t i = n; i-- > 0;) {  // blocks pop in address order
    char* block = slab + i * block_bytes;
    next_of(block) = fl.head[cls];
    fl.head[cls] = block;
    NICBAR_ARENA_POISON(block + kHeader, payload);
  }
}

[[nodiscard]] inline void* allocate(std::size_t size) {
  if (size > kMaxPooled) {
    void* block = std::malloc(kHeader + size);
    if (block == nullptr) throw std::bad_alloc{};
    *static_cast<std::size_t*>(block) = kOversize;
    return static_cast<char*>(block) + kHeader;
  }
  const std::size_t cls = (size + kGranularity - 1) / kGranularity - 1;
  FreeList& fl = lists();
  if (fl.head[cls] == nullptr) refill(fl, cls);
  void* block = fl.head[cls];
  fl.head[cls] = next_of(block);
  NICBAR_ARENA_UNPOISON(static_cast<char*>(block) + kHeader, (cls + 1) * kGranularity);
  *static_cast<std::size_t*>(block) = cls;
  return static_cast<char*>(block) + kHeader;
}

inline void deallocate(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  const std::size_t cls = *static_cast<std::size_t*>(block);
  if (cls == kOversize) {
    std::free(block);
    return;
  }
  FreeList& fl = lists();
  next_of(block) = fl.head[cls];
  fl.head[cls] = block;
  NICBAR_ARENA_POISON(p, (cls + 1) * kGranularity);
}

}  // namespace nicbar::sim::frame_arena
