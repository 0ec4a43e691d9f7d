// Work-stealing thread pool for the experiment runtime.
//
// Each worker owns a deque: it pops its own tasks LIFO (cache-warm) and
// steals FIFO from a sibling when its deque runs dry, so an uneven trial
// grid still keeps every core busy. Submission round-robins across the
// deques to seed the initial spread.
//
// The pool itself makes no determinism promises — tasks run in whatever
// order stealing produces. Determinism is the caller's job: the TrialRunner
// derives each trial's RNG from the trial index alone and collects results
// in submission order, and the sampler exchange (sampling/exchange.hpp)
// gives each task a fixed node range, so the schedule cannot leak into the
// output.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace reconfnet::runtime {

class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1). The pool is ready immediately.
  explicit ThreadPool(std::size_t workers);

  /// Drains every submitted task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw — wrap the body and capture the
  /// exception if it can (TrialRunner does). Throws std::runtime_error if
  /// the pool is already stopping.
  void submit(std::function<void()> task);

  /// Enqueues a task onto a specific worker's deque (modulo workers()),
  /// bypassing the round-robin spread. The racecheck replay harness funnels
  /// every task through queue 0 to force a steal-heavy schedule; results
  /// must not depend on placement.
  void submit_to(std::size_t queue, std::function<void()> task);

  /// Blocks until every task submitted so far has finished running.
  void wait_idle();

  [[nodiscard]] std::size_t workers() const { return queues_.size(); }

  /// The CPUs in the calling thread's affinity mask, with a floor of 1. A
  /// host limited by a cpuset or `taskset` reports what it may use, not
  /// every CPU of the machine; threads inherit the mask of their creator.
  static std::size_t hardware_workers();

  /// True on a thread that runs tasks for some ThreadPool. A task that
  /// could fan out again checks this so nested pools do not multiply.
  static bool on_worker_thread();

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t self);
  bool try_acquire(std::size_t self, std::function<void()>& task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;

  // `queued_` (tasks sitting in deques) and `pending_` (queued + running)
  // are only modified under `mutex_`, which also guards the wake-up
  // conditions, so sleepers can never miss a submission.
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::size_t queued_ = 0;
  std::size_t pending_ = 0;
  bool stopping_ = false;
  std::size_t next_queue_ = 0;
};

/// Runs fn(i) for every i in [0, count) on the pool and rethrows the
/// exception of the lowest failing index (deterministic choice) after all
/// iterations finished.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

}  // namespace reconfnet::runtime
