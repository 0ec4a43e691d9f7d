// Declarative description of an injected fault environment (DESIGN.md §10).
//
// The paper's model (Section 1.1) is perfectly synchronous and lossless: the
// only failures are adversarial churn and the DoS blocking rule. A FaultPlan
// describes everything the model leaves out — message loss (i.i.d. and
// bursty), bounded delay, duplication, reordering, node crashes, and
// correlated partitions — as plain data. The FaultInjector turns a plan plus
// a support::Rng into a deterministic sim::DeliveryHook; the same plan and
// seed always produce the same fault schedule, independent of --jobs.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::fault {

/// Two-state Gilbert-Elliott loss channel, evaluated per directed (from, to)
/// pair and advanced once per message on that channel. Burst lengths are
/// geometric: the mean number of consecutive messages spent in the bad state
/// is 1 / exit_bad.
struct GilbertElliott {
  double enter_bad = 0.0;  ///< P(good -> bad) per message
  double exit_bad = 0.0;   ///< P(bad -> good) per message
  double loss_good = 0.0;  ///< loss probability while in the good state
  double loss_bad = 0.0;   ///< loss probability while in the bad state

  [[nodiscard]] bool active() const {
    return enter_bad > 0.0 || loss_good > 0.0 || loss_bad > 0.0;
  }
};

/// One correlated partition: from clock `start` (inclusive) until `heal`
/// (exclusive) every message crossing the cut is dropped. Sides are assigned
/// either by id threshold (`id_below` set: side A = ids below it) or by a
/// salted hash of the node id (a pseudo-random balanced cut).
struct PartitionEvent {
  sim::Round start = 0;
  sim::Round heal = 0;
  sim::NodeId id_below = sim::kNoNode;  ///< kNoNode = salted hash split
  std::uint64_t salt = 0;

  /// Which side of the cut `node` falls on. A hash split draws from
  /// `split_salt` ^ salt; each caller passes its own split salt.
  [[nodiscard]] bool side_a(sim::NodeId node, std::uint64_t split_salt) const {
    if (id_below != sim::kNoNode) return node < id_below;
    return support::hash_unit(split_salt ^ salt, node, 0) < 0.5;
  }
};

/// One scripted crash: `node` is down from clock `at` (inclusive) until
/// `restart` (exclusive); restart < 0 means crash-stop (down forever). A
/// restarted node has lost all protocol state — the paper's model never
/// reuses ids (Section 1.1), so rejoining means the join procedure with a
/// fresh id; the injector only silences the old one.
struct CrashEvent {
  sim::NodeId node = sim::kNoNode;
  sim::Round at = 0;
  sim::Round restart = -1;

  /// True iff this event holds node `id` down at clock `tick`.
  [[nodiscard]] bool covers(sim::NodeId id, sim::Round tick) const {
    return id == node && tick >= at && (restart < 0 || tick < restart);
  }
};

/// Composable description of the injected faults. All probabilities are per
/// message (crash_rate is per node per clock tick); every field defaults to
/// "off", and a default-constructed plan is the explicit no-fault environment.
struct FaultPlan {
  /// i.i.d. message loss probability.
  double loss = 0.0;
  /// Bursty loss on top of (evaluated before) the i.i.d. loss.
  GilbertElliott burst;
  /// Probability that a surviving message is duplicated (one extra copy).
  double duplicate = 0.0;
  /// Probability that a copy is delayed; the delay is uniform in
  /// [1, max_delay] rounds (bounded partial asynchrony).
  double delay = 0.0;
  sim::Round max_delay = 0;
  /// Permute every inbox uniformly at random each round.
  bool reorder = false;
  /// Per-node per-tick crash probability; a crashed node restarts after
  /// restart_after ticks (restart_after < 0 = crash-stop).
  double crash_rate = 0.0;
  sim::Round restart_after = -1;
  /// Scripted crashes and partitions, on top of the random ones.
  std::vector<CrashEvent> crashes;
  std::vector<PartitionEvent> partitions;

  /// The explicit no-fault environment: an injector driven by this plan is a
  /// byte-identical no-op (it consumes no randomness).
  [[nodiscard]] static FaultPlan none() { return {}; }

  [[nodiscard]] bool has_crashes() const {
    return crash_rate > 0.0 || !crashes.empty();
  }

  /// True iff a scripted crash holds `node` down at clock `tick`.
  [[nodiscard]] bool scripted_crash(sim::NodeId node, sim::Round tick) const {
    for (const CrashEvent& event : crashes) {
      if (event.covers(node, tick)) return true;
    }
    return false;
  }

  /// True iff a scripted crash-stop has taken `node` down for good by `tick`.
  [[nodiscard]] bool crash_stopped(sim::NodeId node, sim::Round tick) const {
    for (const CrashEvent& event : crashes) {
      if (event.restart < 0 && event.covers(node, tick)) return true;
    }
    return false;
  }

  /// True iff an active partition puts `a` and `b` on opposite sides at
  /// clock `tick`; `split_salt` keys the hash-split sides.
  [[nodiscard]] bool partitioned(sim::NodeId a, sim::NodeId b,
                                 sim::Round tick,
                                 std::uint64_t split_salt) const {
    for (const PartitionEvent& event : partitions) {
      if (tick < event.start || tick >= event.heal) continue;
      if (event.side_a(a, split_salt) != event.side_a(b, split_salt)) {
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool enabled() const {
    return loss > 0.0 || burst.active() || duplicate > 0.0 ||
           (delay > 0.0 && max_delay > 0) || reorder || has_crashes() ||
           !partitions.empty();
  }

  // Builder-style helpers so benches read as one declarative expression.
  FaultPlan& with_loss(double p) {
    loss = p;
    return *this;
  }
  FaultPlan& with_burst(GilbertElliott ge) {
    burst = ge;
    return *this;
  }
  FaultPlan& with_duplication(double p) {
    duplicate = p;
    return *this;
  }
  FaultPlan& with_delay(double p, sim::Round max_rounds) {
    delay = p;
    max_delay = max_rounds;
    return *this;
  }
  FaultPlan& with_reordering() {
    reorder = true;
    return *this;
  }
  FaultPlan& with_crash_rate(double per_node_per_tick, sim::Round restart) {
    crash_rate = per_node_per_tick;
    restart_after = restart;
    return *this;
  }
  FaultPlan& with_crash(CrashEvent event) {
    crashes.push_back(event);
    return *this;
  }
  FaultPlan& with_partition(PartitionEvent event) {
    partitions.push_back(event);
    return *this;
  }
};

}  // namespace reconfnet::fault
