// Section 1.1's churn rule with Section 4's staging, the one copy that the
// churn overlay (Section 4) and the combined overlay (Section 6) both hold.
// Each join is introduced to a sponsor that is a member and is not staged to
// leave; ids are never reused; churn staged during epoch E takes effect at
// the end of epoch E+1; a failed epoch stages its churn again; and joins
// whose sponsor has left are delegated to a uniformly random member.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "adversary/churn.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::churn {

class StagedChurn {
 public:
  /// A join: `node` introduced to `sponsor`.
  struct Join {
    sim::NodeId sponsor = sim::kNoNode;
    sim::NodeId node = sim::kNoNode;
  };

  /// One round of the churn adversary: shows it `members` and the departing
  /// ids, checks its batch against the rule (std::logic_error) and stages it.
  void poll(adversary::ChurnAdversary& adversary, sim::Round round,
            std::span<const sim::NodeId> members, sim::IdAllocator& ids);
  /// Stages the leave of `node` (a no-op if it is already staged).
  void stage_leave(sim::NodeId node);

  /// The staged churn becomes the running epoch's.
  void begin_epoch();
  /// The running epoch's joins introduced to `sponsor`, in arrival order.
  [[nodiscard]] std::span<const Join> joins_of(sim::NodeId sponsor) const {
    return std::ranges::equal_range(epoch_joins_, sponsor, {}, &Join::sponsor);
  }
  /// `node` leaves at the end of the running epoch.
  [[nodiscard]] bool leaving(sim::NodeId node) const {
    return std::ranges::binary_search(epoch_leaves_, node);
  }
  /// The running epoch failed: its churn is staged again, after the churn
  /// staged while it ran.
  void fail_epoch();
  /// The running epoch succeeded and left `members`: staged leaves of ids
  /// that are gone are dropped, and the staged joins of each departed
  /// sponsor (ascending) go to `members[rng.below(members.size())]`.
  void end_epoch(std::span<const sim::NodeId> members, support::Rng& rng);

  /// The current members (admitted if they were not yet).
  void set_members(std::span<const sim::NodeId> members);
  [[nodiscard]] bool is_member(sim::NodeId node) const {
    return has(node, kMember);
  }
  /// Ids ever admitted: the initial members and every accepted join.
  [[nodiscard]] std::size_t admitted() const { return admitted_; }
  [[nodiscard]] bool was_admitted(sim::NodeId node) const {
    return has(node, kAdmitted);
  }

 private:
  // Bits of an id's state; kStaged: its leave is staged.
  enum : unsigned { kAdmitted = 1, kMember = 2, kStaged = 4 };

  // One byte per issued id: ids are dense from the overlay's IdAllocator.
  std::vector<std::uint8_t> state_;
  std::size_t admitted_ = 0;
  std::vector<Join> staged_joins_;  // arrival order
  std::vector<Join> epoch_joins_;   // by sponsor, then arrival order
  std::vector<sim::NodeId> staged_leaves_;
  std::vector<sim::NodeId> epoch_leaves_;  // ascending
  std::vector<sim::NodeId> departing_;     // the adversary's view, reused

  [[nodiscard]] bool has(sim::NodeId node, unsigned mask) const {
    return node < state_.size() && (state_[node] & mask) != 0;
  }
  static void clear(std::uint8_t& state, unsigned mask) {
    state = static_cast<std::uint8_t>(state & ~mask);
  }
};

}  // namespace reconfnet::churn
