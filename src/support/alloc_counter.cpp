// Counting replacements for the global operator new/delete pairs. See
// alloc_counter.hpp for the linking contract: this TU is only pulled into
// binaries that link reconfnet_alloccount.
//
// All forms forward to malloc/free (aligned forms to posix_memalign), which
// keeps the replacement sanitizer-compatible: ASan intercepts malloc, so
// leak and bounds checking still see every block. An unsized delete does not
// know the size its block was asked for, so the heap level adds and
// subtracts malloc_usable_size, which both sides can read.
#include "support/alloc_counter.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Relaxed is enough: the harness reads the counters only from the thread
// that runs the measured scope, and totals need no ordering with the
// allocations themselves.
// reconfnet-racecheck: allow(RNR505) single-thread harness reads the tally
std::atomic<std::uint64_t> g_allocations{0};
// reconfnet-racecheck: allow(RNR505) single-thread harness reads the tally
std::atomic<std::uint64_t> g_deallocations{0};
// reconfnet-racecheck: allow(RNR505) single-thread harness reads the tally
std::atomic<std::uint64_t> g_bytes{0};
// reconfnet-racecheck: allow(RNR505) single-thread harness reads the level
std::atomic<std::uint64_t> g_live{0};
/// This thread's share of g_allocations. A trivially initialized
/// thread_local needs no allocation of its own in an executable.
thread_local std::uint64_t t_allocations = 0;
// reconfnet-racecheck: allow(RNR505) single-thread harness reads the peak
std::atomic<std::uint64_t> g_peak{0};

/// Adds a new block to the heap level and raises the peak to it.
void* note_live(void* ptr) noexcept {
  if (ptr == nullptr) return nullptr;
  const std::uint64_t usable = malloc_usable_size(ptr);
  const std::uint64_t live =
      g_live.fetch_add(usable, std::memory_order_relaxed) + usable;
  std::uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak) {
    // On failure the exchange reloads `peak`.
    if (g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
      break;
    }
  }
  return ptr;
}

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  ++t_allocations;
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  return note_live(std::malloc(size == 0 ? 1 : size));
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  ++t_allocations;
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  void* ptr = nullptr;
  const std::size_t alignment = static_cast<std::size_t>(align);
  if (posix_memalign(&ptr, alignment < sizeof(void*) ? sizeof(void*)
                                                     : alignment,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return note_live(ptr);
}

void counted_free(void* ptr) noexcept {
  if (ptr == nullptr) return;
  g_deallocations.fetch_add(1, std::memory_order_relaxed);
  g_live.fetch_sub(malloc_usable_size(ptr), std::memory_order_relaxed);
  std::free(ptr);
}

}  // namespace

namespace reconfnet::support {

AllocTotals alloc_totals() {
  return {g_allocations.load(std::memory_order_relaxed),
          g_deallocations.load(std::memory_order_relaxed),
          g_bytes.load(std::memory_order_relaxed)};
}

std::uint64_t thread_allocations() { return t_allocations; }

HeapLevel heap_level() {
  return {g_live.load(std::memory_order_relaxed),
          g_peak.load(std::memory_order_relaxed)};
}

void reset_heap_peak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

bool alloc_counting_available() {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  // A direct call to the allocation function — unlike a new-expression, it
  // can never be elided by the optimizer ([expr.new] allows eliding only
  // allocations coming from new-expressions).
  void* probe = ::operator new(1);
  // Hide the pointer's provenance: the compiler otherwise pairs the direct
  // operator-new call with the free() inside the replacement and warns.
  asm volatile("" : "+r"(probe));
  ::operator delete(probe);
  return g_allocations.load(std::memory_order_relaxed) > before;
}

}  // namespace reconfnet::support

// ---------------------------------------------------------------------------
// Global replacements. User-provided definitions take precedence over the
// toolchain's at link time ([new.delete] replaceable functions).

void* operator new(std::size_t size) {
  void* ptr = counted_alloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size) {
  void* ptr = counted_alloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* ptr = counted_alloc_aligned(size, align);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* ptr = counted_alloc_aligned(size, align);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, align);
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(size, align);
}

void operator delete(void* ptr) noexcept { counted_free(ptr); }
void operator delete[](void* ptr) noexcept { counted_free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { counted_free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  counted_free(ptr);
}
void operator delete(void* ptr, std::align_val_t, std::size_t) noexcept {
  counted_free(ptr);
}
void operator delete[](void* ptr, std::align_val_t, std::size_t) noexcept {
  counted_free(ptr);
}
