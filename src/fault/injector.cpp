#include "fault/injector.hpp"

#include <algorithm>

namespace reconfnet::fault {

FaultInjector::FaultInjector(FaultPlan plan, support::Rng rng)
    : plan_(std::move(plan)), rng_(rng.split(0)) {
  // Hash salts come from a sibling stream so schedule queries never touch
  // the per-message stream, whatever the plan enables.
  support::Rng salts = rng.split(1);
  crash_salt_ = salts.next();
  partition_salt_ = salts.next();
}

void FaultInjector::on_message(sim::NodeId from, sim::NodeId to,
                               sim::Round /*round*/,
                               std::vector<sim::Round>& deliveries) {
  ++counters_.offered;
  // Every branch below guards its Rng draw behind the feature being enabled,
  // so disabled features consume nothing and a FaultPlan::none() injector is
  // a stream-neutral no-op.
  if (plan_.has_crashes() &&
      (is_crashed(from, clock_) || is_crashed(to, clock_ + 1))) {
    // A crashed sender cannot have sent this round; a receiver down in the
    // delivery round loses the message along with the rest of its state.
    ++counters_.crash_drops;
    return;
  }
  if (!plan_.partitions.empty() && partitioned(from, to, clock_)) {
    ++counters_.partition_drops;
    return;
  }
  if (plan_.burst.active()) {
    Channel& channel = channels_[{from, to}];
    const double p_loss =
        channel.bad ? plan_.burst.loss_bad : plan_.burst.loss_good;
    const bool lost = p_loss > 0.0 && rng_.bernoulli(p_loss);
    const double p_flip =
        channel.bad ? plan_.burst.exit_bad : plan_.burst.enter_bad;
    if (p_flip > 0.0 && rng_.bernoulli(p_flip)) channel.bad = !channel.bad;
    if (lost) {
      ++counters_.lost_burst;
      return;
    }
  }
  if (plan_.loss > 0.0 && rng_.bernoulli(plan_.loss)) {
    ++counters_.lost_iid;
    return;
  }
  const bool duplicated =
      plan_.duplicate > 0.0 && rng_.bernoulli(plan_.duplicate);
  if (duplicated) ++counters_.duplicated;
  const std::size_t copies = duplicated ? 2 : 1;
  for (std::size_t copy = 0; copy < copies; ++copy) {
    sim::Round delay = 0;
    if (plan_.delay > 0.0 && plan_.max_delay > 0 &&
        rng_.bernoulli(plan_.delay)) {
      delay = 1 + static_cast<sim::Round>(rng_.below(
                      static_cast<std::uint64_t>(plan_.max_delay)));
    }
    if (delay > 0) ++counters_.delayed_copies;
    deliveries.push_back(delay);
  }
}

bool FaultInjector::reorder(sim::NodeId /*node*/, sim::Round /*round*/,
                            std::size_t count,
                            std::vector<std::size_t>& perm) {
  // The bus asks in ascending node order (its touched list is sorted), so
  // the draws here are consumed in a reproducible order.
  if (!plan_.reorder || count < 2) return false;
  const std::vector<std::size_t> permutation = rng_.permutation(count);
  perm.assign(permutation.begin(), permutation.end());
  ++counters_.reordered_inboxes;
  return true;
}

void FaultInjector::on_step(sim::Round /*round*/) { ++clock_; }

bool FaultInjector::is_crashed(sim::NodeId node, sim::Round tick) const {
  if (plan_.scripted_crash(node, tick)) return true;
  if (plan_.crash_rate > 0.0) return randomly_crashed(node, tick);
  return false;
}

bool FaultInjector::randomly_crashed(sim::NodeId node, sim::Round tick) const {
  if (tick < 0) return false;
  if (plan_.restart_after >= 0) {
    // Crash-restart: down at `tick` iff some tick in the trailing window of
    // restart_after ticks drew a crash. O(window) pure draws per query.
    const sim::Round window = std::max<sim::Round>(plan_.restart_after, 1);
    const sim::Round begin = tick >= window ? tick - window + 1 : 0;
    for (sim::Round s = begin; s <= tick; ++s) {
      if (support::hash_unit(crash_salt_, node, static_cast<std::uint64_t>(s)) <
          plan_.crash_rate) {
        return true;
      }
    }
    return false;
  }
  // Crash-stop: down from the first crashing tick on, memoized per node.
  CrashScan& scan = crash_scan_[node];
  while (scan.first_crash < 0 && scan.scanned_to <= tick) {
    if (support::hash_unit(crash_salt_, node,
                           static_cast<std::uint64_t>(scan.scanned_to)) <
        plan_.crash_rate) {
      scan.first_crash = scan.scanned_to;
    }
    ++scan.scanned_to;
  }
  return scan.first_crash >= 0 && scan.first_crash <= tick;
}

bool FaultInjector::partitioned(sim::NodeId a, sim::NodeId b,
                                sim::Round tick) const {
  return plan_.partitioned(a, b, tick, partition_salt_);
}

}  // namespace reconfnet::fault
