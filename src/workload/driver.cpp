#include "workload/driver.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "fault/injector.hpp"
#include "sim/delivery.hpp"

namespace reconfnet::workload {

namespace {

/// Slot-pool pre-size for the request tracker: a generous multiple of the
/// per-round arrival rate so steady state never grows the pool.
[[nodiscard]] std::size_t capacity_hint(const DriverConfig& config) {
  const auto per_round = static_cast<std::size_t>(config.arrivals.rate) + 1;
  return std::max<std::size_t>(1024, 64 * per_round);
}

}  // namespace

/// Per-run random streams. Every decision kind draws from its own split of
/// the master seed, so e.g. enabling faults never shifts the key sequence.
struct WorkloadDriver::Streams {
  support::Rng keys;
  support::Rng arrivals;
  support::Rng ops;
  support::Rng blocked;
  support::Rng serve;
  support::Rng epochs;
  fault::FaultInjector injector;
  bool faults;

  Streams(const DriverConfig& config, support::Rng& master)
      : keys(master.split(1)),
        arrivals(master.split(2)),
        ops(master.split(3)),
        blocked(master.split(4)),
        serve(master.split(5)),
        epochs(master.split(6)),
        injector(config.faults, master.split(7)),
        faults(config.faults.enabled()) {}
};

WorkloadDriver::WorkloadDriver(DriverConfig config, AppAdapter* adapter)
    : config_(std::move(config)),
      adapter_(adapter),
      keys_(config_.keys),
      arrivals_(config_.arrivals),
      tracker_(kMaxLatencyRounds, capacity_hint(config_)),
      mitigator_(config_.mitigation,
                 adapter != nullptr ? adapter->group_count() : 1) {
  if (adapter_ == nullptr) {
    throw std::invalid_argument("WorkloadDriver: adapter == nullptr");
  }
  if (config_.per_group_capacity == 0) {
    throw std::invalid_argument("WorkloadDriver: per_group_capacity == 0");
  }
  if (config_.max_attempts == 0) {
    throw std::invalid_argument("WorkloadDriver: max_attempts == 0");
  }
  if (config_.write_fraction < 0.0 || config_.write_fraction > 1.0) {
    throw std::invalid_argument("WorkloadDriver: write_fraction out of [0,1]");
  }
}

WorkloadReport WorkloadDriver::run(support::Rng& master) {
  Streams streams(config_, master);
  // Reset per-run state so one driver can run several trials.
  keys_ = KeyDist(config_.keys);
  arrivals_ = ArrivalProcess(config_.arrivals);
  tracker_ = RequestTracker(kMaxLatencyRounds, capacity_hint(config_));
  mitigator_ = HotKeyMitigator(config_.mitigation, adapter_->group_count());
  report_ = {};
  queue_.clear();
  group_load_.assign(adapter_->group_count(), 0);
  window_.resize(std::max<std::size_t>(adapter_->pipeline_depth(), 1));
  if (streams.faults) {
    mitigator_.set_fault_hook(&streams.injector);
    adapter_->set_fault_hook(&streams.injector);
  }

  // window_[j] holds the blocked set of virtual round now + j; each serving
  // round retires the oldest set and draws the one entering the horizon.
  const auto refresh = [&](sim::BlockedSet& set) {
    set.clear();
    if (config_.blocked_fraction <= 0.0) return;
    const std::size_t nodes = adapter_->node_count();
    for (std::size_t node = 0; node < nodes; ++node) {
      if (streams.blocked.bernoulli(config_.blocked_fraction)) {
        set.insert(static_cast<sim::NodeId>(node));
      }
    }
  };
  for (auto& set : window_) refresh(set);

  sim::Round now = 0;
  for (std::size_t r = 0; r < config_.rounds; ++r) {
    if (config_.epoch_every > 0 && r > 0 && r % config_.epoch_every == 0) {
      // The app reconfigures and serves nothing; open-loop arrivals keep
      // accumulating through every epoch round (the p999 spike).
      const EpochOutcome epoch = adapter_->run_epoch(streams.epochs);
      ++report_.epochs_run;
      if (epoch.ok) ++report_.epochs_ok;
      report_.epoch_rounds += static_cast<std::uint64_t>(epoch.rounds);
      for (sim::Round e = 0; e < epoch.rounds; ++e) {
        ++now;
        issue_arrivals(streams, now);
      }
      for (auto& set : window_) refresh(set);  // the window scrolled past
    }
    ++now;
    std::rotate(window_.begin(), window_.begin() + 1, window_.end());
    refresh(window_.back());
    issue_arrivals(streams, now);
    run_serving_round(streams, now);
    streams.injector.on_step(now);
    if (config_.audit && audit::enabled()) {
      audit::enforce(audit::check_request_conservation(
          tracker_.issued(), tracker_.completed(), tracker_.failed(),
          queue_.size()));
    }
  }

  // The injector dies with this frame; detach everything that borrowed it.
  mitigator_.set_fault_hook(nullptr);
  adapter_->set_fault_hook(nullptr);

  report_.issued = tracker_.issued();
  report_.completed = tracker_.completed();
  report_.failed = tracker_.failed();
  report_.in_flight = tracker_.in_flight();
  report_.rounds = static_cast<std::uint64_t>(now);
  report_.throughput =
      now > 0 ? static_cast<double>(report_.completed) / static_cast<double>(now)
              : 0.0;
  const LatencyHistogram& latency = tracker_.latency();
  if (latency.count() > 0) {
    report_.p50 = latency.p50();
    report_.p99 = latency.p99();
    report_.p999 = latency.p999();
    report_.max_latency = latency.max();
    report_.mean_latency = latency.mean();
  }
  report_.mitigation = mitigator_.stats();
  return report_;
}

void WorkloadDriver::issue_arrivals(Streams& streams, sim::Round now) {
  const std::uint64_t count = arrivals_.next(streams.arrivals);
  queue_.reserve(queue_.size() + count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Pending pending;
    pending.op.is_write = streams.ops.bernoulli(config_.write_fraction);
    pending.op.key = keys_.next(streams.keys);
    pending.op.value = streams.ops.next();
    pending.id = tracker_.issue(now);
    queue_.push_back(pending);
  }
  report_.max_queue = std::max<std::uint64_t>(report_.max_queue, queue_.size());
}

void WorkloadDriver::run_serving_round(Streams& streams, sim::Round now) {
  std::fill(group_load_.begin(), group_load_.end(), 0);
  const std::span<const sim::BlockedSet> window(window_.data(), window_.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    Pending pending = queue_[i];
    const std::uint64_t entry = streams.serve.below(group_load_.size());
    // Hot-key fast path: a read that hits the entry group's cache or an
    // activated replica completes in one round, charging the entry group.
    if (!pending.op.is_write && mitigator_.enabled() &&
        group_load_[entry] < config_.per_group_capacity) {
      std::uint64_t cached = 0;
      if (mitigator_.serve_cached(pending.op.key, entry, now, cached)) {
        ++group_load_[entry];
        tracker_.complete(pending.id, now + 1);
        continue;
      }
    }
    const std::uint64_t home = adapter_->home_group(pending.op);
    if (group_load_[home] >= config_.per_group_capacity) {
      queue_[kept++] = pending;  // home group saturated; wait, don't block others
      continue;
    }
    ++group_load_[home];
    bool lost = false;
    if (streams.faults) {
      // Request and response legs between the entry and home groups are
      // ordinary wire traffic to the fault layer; a leg that no copy crosses
      // within the serve window is lost, and the request retries next round.
      lost = sim::lost_to_hook(streams.injector, entry, home, now, fate_) ||
             sim::lost_to_hook(streams.injector, home, entry, now, fate_);
    }
    ServeOutcome outcome;
    if (lost) {
      ++report_.fault_lost_legs;
    } else {
      outcome = adapter_->serve(pending.op, entry, window, streams.serve);
    }
    if (lost || !outcome.ok) {
      ++pending.attempts;
      ++report_.retries;
      if (pending.attempts >= config_.max_attempts) {
        tracker_.fail(pending.id, now);
      } else {
        queue_[kept++] = pending;
      }
      continue;
    }
    tracker_.complete(pending.id, now + outcome.rounds);
    if (!mitigator_.enabled()) continue;
    if (pending.op.is_write) {
      mitigator_.on_write(pending.op.key, pending.op.value, now);
      continue;
    }
    mitigator_.fill_cache(pending.op.key, outcome.value, entry, now);
    if (mitigator_.observe(pending.op.key)) {
      std::uint64_t current = 0;
      if (adapter_->peek(pending.op.key, current)) {
        mitigator_.replicate(pending.op.key, current, home, now);
      }
    }
  }
  queue_.resize(kept);
}

WorkloadReport run_workload(const DriverConfig& config, AppAdapter& adapter,
                            support::Rng& master) {
  WorkloadDriver driver(config, &adapter);
  return driver.run(master);
}

}  // namespace reconfnet::workload
