#pragma once
// Heap-allocation counter for the traced run. The benchmark binary replaces
// the global operator new (alloc_count.cpp); while counting is off the
// replacement costs one relaxed load per allocation.

#include <cstdint>

namespace ringbench {

void set_alloc_counting(bool on);
std::uint64_t alloc_count();

/// Keeps the calling thread's allocations out of the count while alive, so
/// the benchmark's own bookkeeping (trace buffers, probe stamps) is not
/// charged to the program under test. Nests.
class AllocPause {
 public:
  AllocPause();
  ~AllocPause();
  AllocPause(const AllocPause&) = delete;
  AllocPause& operator=(const AllocPause&) = delete;
};

}  // namespace ringbench
