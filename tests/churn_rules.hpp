// Section 1.1's churn rule, checked the same way against both overlays that
// hold a churn::StagedChurn: the churn overlay (churn_test.cpp) and the
// combined overlay (combined_test.cpp). Each check takes a factory `make`
// whose overlay `make(seed)` starts with `n` members holding ids 0..n-1.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>

#include "adversary/churn.hpp"
#include "dos/attack.hpp"
#include "sim/types.hpp"

namespace reconfnet::churn_rules {

/// Plays a script, one entry per round, on one sponsor: the first member it
/// is shown. An entry is a join id (kFresh draws a fresh id from the
/// overlay's allocator, kAgain repeats the last fresh one) or kLeave, which
/// prescribes the sponsor's leave. Tests may extend `script` between epochs.
class ScriptedJoins final : public adversary::ChurnAdversary {
 public:
  static constexpr sim::NodeId kFresh = sim::kNoNode;
  static constexpr sim::NodeId kAgain = sim::kNoNode - 1;
  static constexpr sim::NodeId kLeave = sim::kNoNode - 2;

  explicit ScriptedJoins(std::deque<sim::NodeId> entries)
      : script(std::move(entries)) {}

  adversary::ChurnBatch next(const adversary::ChurnView& view,
                             sim::IdAllocator& ids) override {
    adversary::ChurnBatch batch;
    if (sponsor == sim::kNoNode) sponsor = view.members.front();
    if (script.empty()) return batch;
    sim::NodeId id = script.front();
    script.pop_front();
    if (id == kLeave) {
      batch.leaves.push_back(sponsor);
      return batch;
    }
    if (id == kFresh) id = fresh = ids.allocate();
    if (id == kAgain) id = fresh;
    batch.joins.emplace_back(id, sponsor);
    return batch;
  }

  std::deque<sim::NodeId> script;
  sim::NodeId sponsor = sim::kNoNode;
  sim::NodeId fresh = sim::kNoNode;
};

/// One epoch of either overlay under `adversary` and no DoS attack.
template <class Overlay>
auto run_epoch(Overlay& overlay, adversary::ChurnAdversary& adversary) {
  if constexpr (requires { overlay.run_epoch(adversary); }) {
    return overlay.run_epoch(adversary);
  } else {
    return overlay.run_epoch(adversary, dos::Attack{});
  }
}

/// Runs epochs until one throws std::logic_error; returns its message.
template <class Overlay>
std::string epoch_error(Overlay& overlay,
                        adversary::ChurnAdversary& adversary) {
  for (int epoch = 0; epoch < 3; ++epoch) {
    try {
      run_epoch(overlay, adversary);
    } catch (const std::logic_error& error) {
      return error.what();
    }
  }
  return "";
}

template <class Make>
void expect_rejects_reused_ids(const Make& make, std::size_t n) {
  // An initial member's id.
  auto initial = make(18);
  ScriptedJoins reuse_member({n - 1});
  EXPECT_EQ(epoch_error(initial, reuse_member),
            "churn adversary reused a node id");
  EXPECT_EQ(initial.churn().admitted(), n);

  // A joiner's id, offered again a round later.
  auto joined = make(19);
  ScriptedJoins rejoin({ScriptedJoins::kFresh, ScriptedJoins::kAgain});
  EXPECT_EQ(epoch_error(joined, rejoin), "churn adversary reused a node id");
  EXPECT_EQ(joined.churn().admitted(), n + 1);
}

template <class Make>
void expect_rejects_unissued_ids(const Make& make, std::size_t n) {
  auto overlay = make(20);
  ScriptedJoins forged({ScriptedJoins::kFresh, n + 5});
  EXPECT_EQ(epoch_error(overlay, forged),
            "churn adversary joined an id the overlay never issued");
  EXPECT_EQ(overlay.churn().admitted(), n + 1);
}

/// A member whose leave is staged may not sponsor a join.
template <class Make>
void expect_rejects_a_leaving_sponsor(const Make& make, std::size_t n) {
  auto overlay = make(21);
  ScriptedJoins adversary({ScriptedJoins::kLeave, ScriptedJoins::kFresh});
  EXPECT_EQ(epoch_error(overlay, adversary),
            "churn adversary violated the sponsor rule");
  EXPECT_EQ(overlay.churn().admitted(), n);
}

/// A member that leaves at the end of the running epoch may still sponsor
/// (the rule checks staged leaves only); once it has left, its join is
/// delegated to a member and placed at the end of the next epoch.
template <class Make>
void expect_delegates_a_departed_sponsors_joins(const Make& make) {
  auto overlay = make(22);
  ScriptedJoins adversary({ScriptedJoins::kLeave});
  ASSERT_TRUE(run_epoch(overlay, adversary).success);
  adversary.script = {ScriptedJoins::kFresh};
  const auto leave = run_epoch(overlay, adversary);
  ASSERT_TRUE(leave.success) << leave.failure_reason;
  EXPECT_EQ(leave.leaves_applied, 1u);
  const auto join = run_epoch(overlay, adversary);
  ASSERT_TRUE(join.success) << join.failure_reason;
  EXPECT_EQ(join.joins_applied, 1u);
  const auto members = overlay.members();
  EXPECT_EQ(std::ranges::count(members, adversary.fresh), 1);
  EXPECT_EQ(std::ranges::count(members, adversary.sponsor), 0);
}

/// The churn of a failed epoch is staged again: `run_failing(overlay,
/// adversary)` runs one epoch that fails with `reason`.
template <class Make, class RunFailing>
void expect_a_failed_epoch_keeps_its_joins(const Make& make,
                                           const RunFailing& run_failing,
                                           const std::string& reason) {
  auto overlay = make(3);
  ScriptedJoins adversary({ScriptedJoins::kFresh});
  ASSERT_TRUE(run_epoch(overlay, adversary).success);
  const auto failed = run_failing(overlay, adversary);
  EXPECT_FALSE(failed.success);
  EXPECT_EQ(failed.failure_reason, reason);
  const auto retry = run_epoch(overlay, adversary);
  ASSERT_TRUE(retry.success) << retry.failure_reason;
  EXPECT_EQ(retry.joins_applied, 1u);
  EXPECT_EQ(std::ranges::count(overlay.members(), adversary.fresh), 1);
}

}  // namespace reconfnet::churn_rules
