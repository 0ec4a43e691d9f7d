#include "churn/staged_churn.hpp"

#include <algorithm>
#include <stdexcept>

namespace reconfnet::churn {

void StagedChurn::poll(adversary::ChurnAdversary& adversary, sim::Round round,
                       std::span<const sim::NodeId> members,
                       sim::IdAllocator& ids) {
  departing_ = staged_leaves_;
  departing_.insert(departing_.end(), epoch_leaves_.begin(),
                    epoch_leaves_.end());
  const auto batch = adversary.next({round, members, departing_}, ids);
  if (state_.size() < ids.allocated()) state_.resize(ids.allocated());
  for (const auto& [fresh, sponsor] : batch.joins) {
    // The sponsor rule checks the staged leaves only: a lenient adversary
    // may still sponsor on the running epoch's leavers, whose joins are then
    // delegated at the epoch boundary.
    if (!is_member(sponsor) || has(sponsor, kStaged)) {
      throw std::logic_error("churn adversary violated the sponsor rule");
    }
    if (fresh >= ids.allocated()) {
      throw std::logic_error(
          "churn adversary joined an id the overlay never issued");
    }
    if (was_admitted(fresh)) {
      throw std::logic_error("churn adversary reused a node id");
    }
    state_[fresh] |= kAdmitted;
    ++admitted_;
    staged_joins_.push_back({sponsor, fresh});
  }
  for (sim::NodeId leaver : batch.leaves) {
    if (!is_member(leaver)) {
      throw std::logic_error("churn adversary removed a non-member");
    }
    stage_leave(leaver);
  }
}

void StagedChurn::stage_leave(sim::NodeId node) {
  if (has(node, kStaged)) return;
  state_[node] |= kStaged;
  staged_leaves_.push_back(node);
}

void StagedChurn::begin_epoch() {
  epoch_joins_.swap(staged_joins_);
  staged_joins_.clear();
  std::ranges::stable_sort(epoch_joins_, {}, &Join::sponsor);
  epoch_leaves_.swap(staged_leaves_);
  staged_leaves_.clear();
  for (sim::NodeId node : epoch_leaves_) clear(state_[node], kStaged);
  std::ranges::sort(epoch_leaves_);
}

void StagedChurn::fail_epoch() {
  staged_joins_.insert(staged_joins_.end(), epoch_joins_.begin(),
                       epoch_joins_.end());
  epoch_joins_.clear();
  for (sim::NodeId node : epoch_leaves_) stage_leave(node);
  epoch_leaves_.clear();
}

void StagedChurn::end_epoch(std::span<const sim::NodeId> members,
                            support::Rng& rng) {
  set_members(members);
  epoch_joins_.clear();
  epoch_leaves_.clear();
  // An id that has left keeps its kStaged bit: it is never a member again,
  // so no rule reads the bit.
  std::erase_if(staged_leaves_,
                [this](sim::NodeId node) { return !is_member(node); });
  // Orphans move behind every join of a member, ascending by sponsor, so a
  // delegate places its own joins first and then each orphan's in turn.
  const auto orphans = std::ranges::stable_partition(
      staged_joins_,
      [this](sim::NodeId sponsor) { return is_member(sponsor); },
      &Join::sponsor);
  std::ranges::stable_sort(orphans, {}, &Join::sponsor);
  sim::NodeId orphan = sim::kNoNode;
  sim::NodeId delegate = sim::kNoNode;
  for (Join& join : orphans) {
    if (join.sponsor != orphan) {
      orphan = join.sponsor;
      delegate = members[rng.below(members.size())];
    }
    join.sponsor = delegate;
  }
}

void StagedChurn::set_members(std::span<const sim::NodeId> members) {
  for (auto& state : state_) clear(state, kMember);
  for (sim::NodeId node : members) {
    if (node >= state_.size()) state_.resize(node + 1);
    if ((state_[node] & kAdmitted) == 0) ++admitted_;
    state_[node] |= kAdmitted | kMember;
  }
}

}  // namespace reconfnet::churn
