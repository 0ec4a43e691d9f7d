// Narrows the calling thread's CPU affinity mask for one scope.
//
// runtime::ThreadPool::hardware_workers() counts the CPUs in the calling
// thread's mask, and the sampler exchange (src/sampling/exchange.hpp) runs on
// that many node ranges, so a test fixes the range count by narrowing the
// mask. Threads inherit the mask of the thread that starts them.
#pragma once

#include <sched.h>

#include <cstddef>

namespace reconfnet {

class ScopedCpuMask {
 public:
  /// Keeps the first `cpus` CPUs of the current mask. When fewer are allowed
  /// (or the mask cannot be read or set), ok() is false and the mask stays.
  explicit ScopedCpuMask(std::size_t cpus) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    if (static_cast<std::size_t>(CPU_COUNT(&saved_)) < cpus) return;
    cpu_set_t narrowed;
    CPU_ZERO(&narrowed);
    std::size_t kept = 0;
    for (std::size_t cpu = 0;
         cpu < static_cast<std::size_t>(CPU_SETSIZE) && kept < cpus; ++cpu) {
      if (CPU_ISSET(cpu, &saved_) == 0) continue;
      CPU_SET(cpu, &narrowed);
      ++kept;
    }
    ok_ = sched_setaffinity(0, sizeof(narrowed), &narrowed) == 0;
  }
  ~ScopedCpuMask() {
    if (ok_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ScopedCpuMask(const ScopedCpuMask&) = delete;
  ScopedCpuMask& operator=(const ScopedCpuMask&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

}  // namespace reconfnet
