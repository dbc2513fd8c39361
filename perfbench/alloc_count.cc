#include "alloc_count.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {
namespace {

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
};

// Threads get slots in creation order and never give them back, so a
// process may start this many threads before the rest share the last slot
// (which then counts with an atomic add instead of a private store).
constexpr std::size_t kSlots = 4096;
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
// Trivially destructible, so reading it from operator new never registers
// a thread-exit destructor (which could itself allocate).
thread_local Slot* t_slot = nullptr;

Slot& my_slot() {
  if (t_slot == nullptr) {
    const std::size_t i = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    t_slot = &g_slots[i < kSlots ? i : kSlots - 1];
  }
  return *t_slot;
}

void count_one() {
  Slot& slot = my_slot();
  if (&slot == &g_slots[kSlots - 1]) {
    slot.count.fetch_add(1, std::memory_order_relaxed);
  } else {
    slot.count.store(slot.count.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  }
}

void* allocate(std::size_t size) {
  count_one();
  return std::malloc(size == 0 ? 1 : size);
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count_one();
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

}  // namespace

std::uint64_t thread_count() {
  return my_slot().count.load(std::memory_order_relaxed);
}

std::uint64_t total_count() {
  std::uint64_t total = 0;
  const std::size_t used =
      std::min(g_next_slot.load(std::memory_order_relaxed), kSlots);
  for (std::size_t i = 0; i < used; ++i) {
    total += g_slots[i].count.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace perfbench::alloc

void* operator new(std::size_t size) {
  if (void* p = perfbench::alloc::allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = perfbench::alloc::allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::alloc::allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return perfbench::alloc::allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::alloc::allocate_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = perfbench::alloc::allocate_aligned(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return perfbench::alloc::allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return perfbench::alloc::allocate_aligned(size, align);
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
