// FaultPlan-driven packet mangler for the live transport (DESIGN.md §15).
//
// The in-process simulator injects faults through sim::DeliveryHook
// (fault::FaultInjector); a live deployment has no central bus to hook, so
// the mangler interposes at each process's socket seam instead. Every
// decision is a pure splitmix64 hash of (salt, endpoints, round, try) — no
// stream state — so all N processes agree on the schedule without
// coordination, and the in-process run of the same plan (via FaultInjector,
// which evaluates the same FaultPlan crash/partition predicates) sees the
// same crash and partition windows round for round.
//
// Scope: scripted crashes, partitions, and i.i.d. loss. The stateful fault
// families (burst channels, delay queues, inbox reordering) stay
// simulator-only — a real UDP path already reorders and delays on its own.
#pragma once

#include <cstdint>

#include "fault/plan.hpp"
#include "sim/types.hpp"

namespace reconfnet::transport {

/// Decides, at the sender, whether a datagram crosses the (simulated) wire.
class PacketMangler {
 public:
  struct Counters {
    std::uint64_t offered = 0;
    std::uint64_t crash_drops = 0;
    std::uint64_t partition_drops = 0;
    std::uint64_t lost = 0;
  };

  /// `salt` seeds the pure hash draws; all processes of one deployment must
  /// pass the same value (the deploy scripts derive it from the run seed).
  PacketMangler(fault::FaultPlan plan, std::uint64_t salt);

  /// True iff the datagram from -> to, sent in sender-round `round` on its
  /// `attempt`-th transmission (0 = first send, retransmits count up), should
  /// be dropped. Mirrors the injector's rule: a crashed sender sends
  /// nothing, a receiver down in the next round loses the datagram, a
  /// partition cut eats everything crossing it, and i.i.d. loss draws a
  /// fresh (hashed) coin per transmission so retransmits can get through.
  [[nodiscard]] bool drop(sim::NodeId from, sim::NodeId to, sim::Round round,
                          std::uint32_t attempt);

  /// True iff `node` is down at round `tick` under the plan's scripted
  /// crashes. Pure in (node, tick).
  [[nodiscard]] bool is_crashed(sim::NodeId node, sim::Round tick) const;

  /// True iff a partition separates `a` from `b` at round `tick`.
  [[nodiscard]] bool partitioned(sim::NodeId a, sim::NodeId b,
                                 sim::Round tick) const;

  [[nodiscard]] const fault::FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  fault::FaultPlan plan_;
  std::uint64_t salt_;
  Counters counters_;
};

}  // namespace reconfnet::transport
