// Heap-allocation counter for the benchmark binary. alloc_count.cpp replaces
// the global operator new/delete; allocations are counted only between
// start() and stop(), which the traced run wraps around Cluster::run_all
// (and wl::Driver::run). Outside that window the replacement costs one
// relaxed load per allocation.
#pragma once

#include <cstdint>

namespace perfbench::heap {

struct Counts {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;
};

/// Zeroes the counters and starts counting.
void start();

/// Stops counting and returns what was counted since start().
Counts stop();

}  // namespace perfbench::heap
