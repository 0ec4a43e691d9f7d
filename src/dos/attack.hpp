// The t-late attack round of the grouped overlays (DosOverlay at any arity,
// so also the k-ary DHT overlay, and the combined overlay): each round the
// r-bounded adversary blocks from the topology as it was at least t rounds
// ago (Section 1.1), and a group acts only through its available members
// (Lemma 17). AttackRounds keeps what that needs across rounds; each overlay
// keeps only what differs (connectivity, crashes and churn, the fault
// hook's clock, its work formulas).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "adversary/dos.hpp"
#include "sampling/hypercube_sampler.hpp"
#include "sim/blocked.hpp"
#include "sim/snapshot.hpp"
#include "sim/types.hpp"

namespace reconfnet::dos {

/// Wire size of one node id in the grouped overlays' work formulas.
inline constexpr std::uint64_t kIdBits = 64;

/// One attack scenario: strategy, enforced lateness (rounds), and the
/// blocked fraction r of an r-bounded adversary.
struct Attack {
  adversary::DosAdversary* adversary = nullptr;  ///< nullptr: no attack
  int lateness = 0;
  double blocked_fraction = 0.0;
};

/// Available in round i: non-blocked in rounds i-1 and i, so the node can
/// both receive the previous round's messages and act now.
[[nodiscard]] inline bool available(sim::NodeId node,
                                    const sim::BlockedSet& now,
                                    const sim::BlockedSet& before) {
  return !now.contains(node) && !before.contains(node);
}

/// Bits of the supernode state S(x) a group broadcasts in each round of its
/// Algorithm 2 simulation: every block entry of `core` is a supernode label
/// plus references to that supernode's representatives (`avg_group` ids),
/// after a 16-bit header and the group's own member list.
[[nodiscard]] std::uint64_t supernode_state_bits(
    const sampling::HypercubeSamplerCore& core, double avg_group);

class AttackRounds {
 public:
  /// The current round: rounds run so far.
  [[nodiscard]] sim::Round round() const { return round_; }
  /// What a t-late adversary is served from.
  [[nodiscard]] const sim::SnapshotBuffer& snapshots() const {
    return snapshots_;
  }

  /// Records the overlay's topology as of the current round.
  void push_snapshot(std::vector<sim::NodeId> nodes,
                     std::vector<std::pair<sim::NodeId, sim::NodeId>> edges);

  /// Starts the current round: the adversary, if any, blocks at most
  /// blocked_fraction * |universe| of the public ids `universe` from the
  /// view served at round() - lateness; under RECONFNET_AUDIT only ids that
  /// `known` accepts (empty: the universe). Returns the round's blocked set,
  /// to which the caller adds nodes silent for other reasons.
  sim::BlockedSet& block(const Attack& attack,
                         std::span<const sim::NodeId> universe,
                         const std::function<bool(sim::NodeId)>& known = {});

  /// Adds this round's availability of `groups` (member lists) to the
  /// report's silenced_group_rounds and min_available_fraction; returns the
  /// largest |R(x)| + available, which the bit formulas multiply.
  template <class Groups, class Report>
  std::size_t tally(const Groups& groups, Report& report) const {
    std::size_t max_load = 0;
    for (const auto& members : groups) {
      std::size_t up = 0;
      for (const sim::NodeId node : members) {
        if (available(node, blocked_, blocked_prev_)) ++up;
      }
      if (up == 0) ++report.silenced_group_rounds;
      report.min_available_fraction =
          std::min(report.min_available_fraction,
                   static_cast<double>(up) /
                       static_cast<double>(members.size()));
      max_load = std::max(max_load, members.size() + up);
    }
    return max_load;
  }

  /// Ends the current round: its blocked set becomes the previous one.
  void end_round();

 private:
  sim::SnapshotBuffer snapshots_;
  sim::BlockedSet blocked_;
  sim::BlockedSet blocked_prev_;
  sim::Round round_ = 0;
};

}  // namespace reconfnet::dos
