#include "runtime/thread_pool.hpp"

#include <sched.h>

#include <algorithm>
#include <exception>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runtime/racecheck.hpp"
#include "support/rng.hpp"

namespace reconfnet::runtime {

namespace {

/// Set once on each pool worker before it takes its first task.
thread_local bool t_pool_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  const std::size_t count = std::max<std::size_t>(workers, 1);
  queues_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  threads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::submit: pool is stopping");
    }
    const std::size_t target = next_queue_;
    next_queue_ = (next_queue_ + 1) % queues_.size();
    {
      std::lock_guard<std::mutex> queue_lock(queues_[target]->mutex);
      queues_[target]->tasks.push_back(std::move(task));
    }
    ++queued_;
    ++pending_;
  }
  work_ready_.notify_one();
}

void ThreadPool::submit_to(std::size_t queue, std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw std::runtime_error("ThreadPool::submit_to: pool is stopping");
    }
    const std::size_t target = queue % queues_.size();
    {
      std::lock_guard<std::mutex> queue_lock(queues_[target]->mutex);
      queues_[target]->tasks.push_back(std::move(task));
    }
    ++queued_;
    ++pending_;
  }
  work_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return pending_ == 0; });
}

std::size_t ThreadPool::hardware_workers() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  // A mask wider than cpu_set_t (over 1024 CPUs) fails to read; the whole
  // machine is then the best count there is.
  const std::size_t count =
      sched_getaffinity(0, sizeof(mask), &mask) == 0
          ? static_cast<std::size_t>(CPU_COUNT(&mask))
          : std::thread::hardware_concurrency();
  return std::max<std::size_t>(count, 1);
}

bool ThreadPool::on_worker_thread() { return t_pool_worker; }

bool ThreadPool::try_acquire(std::size_t self, std::function<void()>& task) {
  // Own queue first, newest task first (cache-warm); then steal the oldest
  // task from a sibling, scanning from the next worker around the ring.
  for (std::size_t offset = 0; offset < queues_.size(); ++offset) {
    const std::size_t victim = (self + offset) % queues_.size();
    WorkerQueue& queue = *queues_[victim];
    {
      std::lock_guard<std::mutex> queue_lock(queue.mutex);
      if (queue.tasks.empty()) continue;
      if (victim == self) {
        task = std::move(queue.tasks.back());
        queue.tasks.pop_back();
      } else {
        task = std::move(queue.tasks.front());
        queue.tasks.pop_front();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --queued_;
    }
    return true;
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t self) {
  t_pool_worker = true;
  while (true) {
    std::function<void()> task;
    if (try_acquire(self, task)) {
      task();
      std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) all_done_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    work_ready_.wait(lock, [this] { return stopping_ || queued_ > 0; });
    if (stopping_ && queued_ == 0) return;
  }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_index = std::numeric_limits<std::size_t>::max();

  // Submission order: natural in production. The racecheck replay harness
  // perturbs it (reverse / seeded shuffle / steal storm) — the determinism
  // contract says the schedule cannot leak into the results, and
  // tests/racecheck_replay_test.cpp holds the runtime to it.
  const racecheck::Schedule schedule = racecheck::schedule();
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  if (schedule == racecheck::Schedule::kReverse) {
    std::reverse(order.begin(), order.end());
  } else if (schedule == racecheck::Schedule::kSeeded) {
    support::Rng shuffle_rng(racecheck::schedule_seed());
    shuffle_rng.shuffle(std::span<std::size_t>(order));
  }

  const std::size_t region = racecheck::on_region_begin(count);
  for (const std::size_t i : order) {
    auto task = [&, i, region] {
      racecheck::TaskScope scope(region, i);
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (i < first_error_index) {
          // reconfnet-racecheck: allow(RNR501) mutex-guarded min reduction
          first_error_index = i;
          // reconfnet-racecheck: allow(RNR501) keyed by index: deterministic
          first_error = std::current_exception();
        }
      }
    };
    if (schedule == racecheck::Schedule::kStealStorm) {
      pool.submit_to(0, std::move(task));
    } else {
      pool.submit(std::move(task));
    }
  }
  pool.wait_idle();
  const std::vector<std::string> violations = racecheck::on_region_end(region);
  if (first_error) std::rethrow_exception(first_error);
  if (!violations.empty()) {
    throw std::logic_error("parallel_for: ownership violation: " +
                           violations.front());
  }
}

}  // namespace reconfnet::runtime
