// Process-wide allocation counting for the allocation-budget harness
// (tests/allocbudget_test.cpp; budgets declared in
// tools/hotcheck/hotpaths.toml).
//
// The counters only move when the translation unit alloc_counter.cpp is
// linked into the binary: it replaces the global operator new/delete pairs
// with counting forwarders. That object lives in its own static library
// (reconfnet_alloccount) which ONLY the budget test links, so every other
// target keeps the toolchain allocator untouched. alloc_counting_available()
// reports at runtime whether the replacement is active, letting shared test
// code degrade gracefully if the link ever changes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace reconfnet::support {

/// Monotonic process-wide totals since program start.
struct AllocTotals {
  std::uint64_t allocations = 0;    ///< operator new calls
  std::uint64_t deallocations = 0;  ///< operator delete calls
  std::uint64_t bytes = 0;          ///< bytes requested through operator new
};

/// The process-wide heap level. Each block counts its malloc_usable_size, so
/// the allocator's rounding is included.
struct HeapLevel {
  std::uint64_t live_bytes = 0;  ///< usable bytes of the blocks now live
  std::uint64_t peak_bytes = 0;  ///< highest live_bytes since the last reset
};

/// Snapshot of the process-wide counters (all zero when the counting
/// allocator is not linked in).
AllocTotals alloc_totals();

/// Snapshot of the heap level.
HeapLevel heap_level();

/// Restarts the peak at the current live level.
void reset_heap_peak();

/// True when the counting operator new/delete replacement is linked into
/// this binary (verified by a live probe allocation, not a build flag).
bool alloc_counting_available();

/// RAII measurement scope: captures the totals at construction and restarts
/// the process-wide heap peak there; delta() reports the traffic since then
/// and peak_bytes() the highest heap level above the one at construction.
class AllocCounter {
 public:
  AllocCounter() {
    reset_heap_peak();
    start_live_ = heap_level().live_bytes;
  }

  /// Allocation traffic between construction and now.
  [[nodiscard]] AllocTotals delta() const {
    const AllocTotals now = alloc_totals();
    return {now.allocations - start_.allocations,
            now.deallocations - start_.deallocations,
            now.bytes - start_.bytes};
  }

  /// Most usable heap bytes live at once since construction, minus those
  /// live at construction.
  [[nodiscard]] std::uint64_t peak_bytes() const {
    return heap_level().peak_bytes - start_live_;
  }

 private:
  AllocTotals start_ = alloc_totals();
  std::uint64_t start_live_ = 0;
};

}  // namespace reconfnet::support
