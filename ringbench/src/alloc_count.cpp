// Global operator new/delete replacement that counts allocations while the
// traced run has counting switched on. Every form of new funnels into one
// of two helpers; every form of delete releases with free().

#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// One cache line per counter slot so the sim's worker threads and the
// runtime's 45 node threads do not contend on a single atomic.
struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};
constexpr unsigned kSlots = 64;
Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};
std::atomic<bool> g_counting{false};
thread_local unsigned t_paused = 0;

void count_one() noexcept {
  if (t_paused != 0) return;
  thread_local const unsigned slot =
      g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  g_slots[slot].n.fetch_add(1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) count_one();
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) count_one();
  if (align < sizeof(void*)) align = sizeof(void*);
  // aligned_alloc wants the size to be a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + align - 1) / align * align;
  return std::aligned_alloc(align, rounded);
}

void* alloc_or_throw(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* aligned_or_throw(std::size_t size, std::size_t align) {
  void* p = counted_aligned_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace ringbench {

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocPause::AllocPause() { ++t_paused; }
AllocPause::~AllocPause() { --t_paused; }

std::uint64_t alloc_count() {
  std::uint64_t total = 0;
  for (const Slot& s : g_slots) total += s.n.load(std::memory_order_relaxed);
  return total;
}

}  // namespace ringbench

void* operator new(std::size_t size) { return alloc_or_throw(size); }
void* operator new[](std::size_t size) { return alloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  return aligned_or_throw(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return aligned_or_throw(size, static_cast<std::size_t>(al));
}
void* operator new(std::size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
