// Deterministic fault injector: turns a FaultPlan plus a support::Rng into a
// sim::DeliveryHook (DESIGN.md §10).
//
// Determinism discipline: every random decision is either (a) drawn from the
// injector's own Rng in message order — which the bus fixes: outbox order is
// send order — or (b) a pure splitmix64 hash of (salt, node, clock), so that
// schedule queries (is this node crashed now?) are independent of query
// order. A plan with a feature disabled draws nothing for that feature, so
// partially-enabled plans never shift the stream of the enabled ones, and
// FaultPlan::none() consumes no randomness at all.
//
// Clock semantics: round-indexed schedules (partitions, crashes) run on the
// injector's own clock, advanced once per observed Bus::step via on_step.
// Several buses sharing one injector (the churn pipeline runs one bus per
// phase) therefore see a single monotonic timeline of communication rounds.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/plan.hpp"
#include "sim/bus.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::fault {

/// Implements the bus delivery hook for one FaultPlan. Attach with
/// Bus::set_fault_hook; one injector may serve several buses (they share the
/// fault clock and the loss channels).
class FaultInjector final : public sim::DeliveryHook {
 public:
  /// Event counts, for tests and bench reporting.
  struct Counters {
    std::uint64_t offered = 0;          ///< messages the bus consulted us on
    std::uint64_t lost_iid = 0;         ///< dropped by i.i.d. loss
    std::uint64_t lost_burst = 0;       ///< dropped by the Gilbert-Elliott channel
    std::uint64_t crash_drops = 0;      ///< endpoint crashed
    std::uint64_t partition_drops = 0;  ///< endpoints on opposite sides of a cut
    std::uint64_t duplicated = 0;       ///< messages that gained an extra copy
    std::uint64_t delayed_copies = 0;   ///< copies assigned a positive delay
    std::uint64_t reordered_inboxes = 0;
  };

  FaultInjector(FaultPlan plan, support::Rng rng);

  void on_message(sim::NodeId from, sim::NodeId to, sim::Round round,
                  std::vector<sim::Round>& deliveries) override;
  bool reorder(sim::NodeId node, sim::Round round, std::size_t count,
               std::vector<std::size_t>& perm) override;
  void on_step(sim::Round round) override;

  /// True iff `node` is down at injector-clock tick `tick` (scripted crashes
  /// plus the hash-scheduled random ones). Pure in (node, tick): answers do
  /// not depend on query order.
  [[nodiscard]] bool is_crashed(sim::NodeId node, sim::Round tick) const;

  /// True iff a partition separates `a` from `b` at tick `tick`.
  [[nodiscard]] bool partitioned(sim::NodeId a, sim::NodeId b,
                                 sim::Round tick) const;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  /// The injector's clock: number of Bus::step boundaries observed so far.
  [[nodiscard]] sim::Round ticks() const { return clock_; }

 private:
  /// Gilbert-Elliott channel state for one directed (from, to) pair.
  struct Channel {
    bool bad = false;
  };

  /// Memo for the crash-stop schedule of one node: ticks [0, scanned_to)
  /// have been examined; first_crash is the earliest crashing tick found,
  /// -1 if none yet. Purely a cache over pure hash draws, so query order
  /// cannot change any answer.
  struct CrashScan {
    sim::Round scanned_to = 0;
    sim::Round first_crash = -1;
  };

  /// Random crash schedule: true iff the pure per-tick draws put `node` in a
  /// crashed window covering `tick`.
  [[nodiscard]] bool randomly_crashed(sim::NodeId node, sim::Round tick) const;

  FaultPlan plan_;
  support::Rng rng_;
  std::uint64_t crash_salt_ = 0;
  std::uint64_t partition_salt_ = 0;
  /// Ordered map so any future iteration is deterministic; lookups dominate.
  std::map<std::pair<sim::NodeId, sim::NodeId>, Channel> channels_;
  /// Lookup-only cache (never iterated) for the crash-stop schedule.
  mutable std::unordered_map<sim::NodeId, CrashScan> crash_scan_;
  Counters counters_;
  sim::Round clock_ = 0;
};

}  // namespace reconfnet::fault
