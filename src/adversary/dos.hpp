// DoS adversaries (Section 1.1). An r-bounded t-late adversary may block any
// r-fraction of the current nodes each round but only sees the overlay
// topology as it was at least t rounds ago. Lateness is enforced by the
// harness and machine-checked from both sides: strategies receive an
// access-audited sim::StaleSnapshotView (never live state), and
// reconfnet_oraclecheck statically verifies that adversary code touches only
// the permitted read surface declared in tools/oraclecheck/oracle.toml.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "sim/blocked.hpp"
#include "sim/stale_view.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::adversary {

/// Strategy interface. `stale` is the harness-served view of the freshest
/// snapshot that is at least the configured lateness old (empty if none
/// exists yet); `universe` is the publicly known id space (an adversary
/// without topology information can still block ids blindly); `budget` is the
/// maximum number of nodes the adversary may block this round.
class DosAdversary {
 public:
  virtual ~DosAdversary() = default;
  virtual sim::BlockedSet choose(const sim::StaleSnapshotView& stale,
                                 std::span<const sim::NodeId> universe,
                                 std::size_t budget, sim::Round now) = 0;
};

/// Blocks nothing.
class NoDos final : public DosAdversary {
 public:
  sim::BlockedSet choose(const sim::StaleSnapshotView&,
                         std::span<const sim::NodeId>, std::size_t,
                         sim::Round) override {
    return {};
  }
};

/// Blocks a uniformly random `budget`-subset of the (stale) node set.
class RandomDos final : public DosAdversary {
 public:
  explicit RandomDos(support::Rng rng) : rng_(rng) {}
  sim::BlockedSet choose(const sim::StaleSnapshotView& stale,
                         std::span<const sim::NodeId> universe,
                         std::size_t budget, sim::Round now) override;

 private:
  support::Rng rng_;
};

/// Isolation attack: repeatedly picks a victim and blocks its entire closed
/// neighborhood in the stale topology until the budget is exhausted. Against
/// a static overlay with degree < budget this disconnects the network even
/// for large lateness; against the reconfiguring overlay the stale
/// neighborhood no longer matches the live one.
class IsolationDos final : public DosAdversary {
 public:
  explicit IsolationDos(support::Rng rng) : rng_(rng) {}
  sim::BlockedSet choose(const sim::StaleSnapshotView& stale,
                         std::span<const sim::NodeId> universe,
                         std::size_t budget, sim::Round now) override;

 private:
  support::Rng rng_;
};

/// Clique attack tuned against the grouped-hypercube overlay of Section 5:
/// in the stale topology the groups appear as cliques, so the adversary
/// greedily blocks whole cliques (a victim plus every neighbor sharing 90% of
/// its neighborhood) hoping to silence an entire group.
class GroupWipeDos final : public DosAdversary {
 public:
  explicit GroupWipeDos(support::Rng rng) : rng_(rng) {}
  sim::BlockedSet choose(const sim::StaleSnapshotView& stale,
                         std::span<const sim::NodeId> universe,
                         std::size_t budget, sim::Round now) override;

 private:
  support::Rng rng_;
};

/// Adaptive group-learning attack (ROADMAP item 5). The adversary partitions
/// each new stale snapshot into apparent groups (near-cliques), wipes whole
/// groups, and then *learns from its own blocked-set feedback*: when the next
/// stale snapshot arrives it checks whether the groups it attacked last time
/// still exist, and keeps an exponential moving average `persistence` of how
/// often they do. Against a static overlay persistence converges to 1 and the
/// full budget goes into group wipes; against the reconfiguring overlay with
/// lateness >= one epoch the attacked groups have dissolved by the time the
/// adversary can observe the outcome, persistence decays toward 0, and the
/// strategy degrades to random blocking — exactly the paper's Section 5
/// claim, measured from the adversary's side. Everything it consumes (stale
/// view, public universe, its own past choices) is inside the permitted read
/// surface of oracle.toml; the point of this strategy is to demonstrate that
/// a *learning* adversary needs no contraband information channel.
class AdaptiveDos final : public DosAdversary {
 public:
  explicit AdaptiveDos(support::Rng rng) : rng_(rng) {}
  sim::BlockedSet choose(const sim::StaleSnapshotView& stale,
                         std::span<const sim::NodeId> universe,
                         std::size_t budget, sim::Round now) override;

  /// Current estimate in [0, 1] of how often an attacked group survives until
  /// the adversary can next observe it. Exposed for tests and benches.
  [[nodiscard]] double persistence() const { return persistence_; }

 private:
  support::Rng rng_;
  // Optimistic prior: assume the overlay is static until feedback says
  // otherwise (the strongest opening move against a non-reconfiguring
  // target).
  double persistence_ = 1.0;
  sim::Round last_snapshot_round_ = -1;  // no snapshot observed yet
  // Groups this adversary chose to wipe at the previous snapshot — its own
  // output, remembered as feedback. Each group is sorted.
  std::vector<std::vector<sim::NodeId>> attacked_groups_;
};

}  // namespace reconfnet::adversary
