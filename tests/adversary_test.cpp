#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "adversary/churn.hpp"
#include "adversary/dos.hpp"
#include "sim/snapshot.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::adversary {
namespace {

std::vector<sim::NodeId> make_members(std::size_t n) {
  std::vector<sim::NodeId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = i;
  return members;
}

TEST(UniformChurn, RespectsTurnoverAndGrowth) {
  support::Rng rng(1);
  UniformChurn churn(0.1, 1.0, 2.0, rng);
  sim::IdAllocator ids(1000);
  const auto members = make_members(100);
  ChurnView view{0, members, {}};
  const auto batch = churn.next(view, ids);
  EXPECT_EQ(batch.leaves.size(), 10u);
  EXPECT_EQ(batch.joins.size(), 10u);
}

TEST(UniformChurn, JoinsSponsoredBySurvivors) {
  support::Rng rng(2);
  UniformChurn churn(0.3, 1.0, 4.0, rng);
  sim::IdAllocator ids(1000);
  const auto members = make_members(50);
  ChurnView view{0, members, {}};
  const auto batch = churn.next(view, ids);
  const std::unordered_set<sim::NodeId> leaves(batch.leaves.begin(),
                                               batch.leaves.end());
  for (const auto& [fresh, sponsor] : batch.joins) {
    EXPECT_GE(fresh, 1000u);  // allocated, never reused
    EXPECT_LT(sponsor, 50u);
    EXPECT_FALSE(leaves.contains(sponsor));
  }
}

TEST(UniformChurn, RespectsSponsorCap) {
  support::Rng rng(3);
  const double rate = 2.0;
  UniformChurn churn(0.5, 1.0, rate, rng);
  sim::IdAllocator ids(1000);
  const auto members = make_members(40);
  ChurnView view{0, members, {}};
  const auto batch = churn.next(view, ids);
  std::unordered_map<sim::NodeId, int> per_sponsor;
  for (const auto& [fresh, sponsor] : batch.joins) ++per_sponsor[sponsor];
  for (const auto& [sponsor, count] : per_sponsor) EXPECT_LE(count, 2);
}

TEST(UniformChurn, DoesNotTargetDepartingNodes) {
  support::Rng rng(4);
  UniformChurn churn(0.5, 1.0, 2.0, rng);
  sim::IdAllocator ids(1000);
  const auto members = make_members(20);
  const std::vector<sim::NodeId> departing{0, 1, 2, 3, 4};
  ChurnView view{0, members, departing};
  const auto batch = churn.next(view, ids);
  const std::unordered_set<sim::NodeId> dep(departing.begin(),
                                            departing.end());
  for (auto node : batch.leaves) EXPECT_FALSE(dep.contains(node));
  for (const auto& [fresh, sponsor] : batch.joins) {
    EXPECT_FALSE(dep.contains(sponsor));
  }
}

TEST(UniformChurn, NeverRemovesEveryNode) {
  support::Rng rng(5);
  UniformChurn churn(1.0, 1.0, 100.0, rng);
  sim::IdAllocator ids(1000);
  const auto members = make_members(10);
  ChurnView view{0, members, {}};
  const auto batch = churn.next(view, ids);
  EXPECT_LT(batch.leaves.size(), members.size());
}

TEST(UniformChurn, InvalidRateThrows) {
  support::Rng rng(6);
  EXPECT_THROW(UniformChurn(0.1, 1.0, 0.5, rng), std::invalid_argument);
}

TEST(SegmentChurn, RemovesContiguousRunOfGivenOrder) {
  support::Rng rng(7);
  SegmentChurn churn(0.2, 2.0, rng);
  const auto members = make_members(30);
  churn.set_order(members);  // order = 0,1,...,29 around the cycle
  sim::IdAllocator ids(1000);
  ChurnView view{0, members, {}};
  const auto batch = churn.next(view, ids);
  ASSERT_EQ(batch.leaves.size(), 6u);
  // Leaves form a contiguous run mod 30.
  std::vector<sim::NodeId> sorted = batch.leaves;
  std::sort(sorted.begin(), sorted.end());
  bool contiguous = true;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] != sorted[i - 1] + 1) contiguous = false;
  }
  // A run may wrap around the cycle boundary; then it splits into a prefix
  // and a suffix of the sorted order.
  if (!contiguous) {
    std::size_t breaks = 0;
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i] != sorted[i - 1] + 1) ++breaks;
    }
    EXPECT_EQ(breaks, 1u);
    EXPECT_EQ(sorted.front(), 0u);
    EXPECT_EQ(sorted.back(), 29u);
  }
}

TEST(SegmentChurn, MatchesJoinsToLeaves) {
  support::Rng rng(8);
  SegmentChurn churn(0.25, 4.0, rng);
  const auto members = make_members(40);
  churn.set_order(members);
  sim::IdAllocator ids(1000);
  ChurnView view{0, members, {}};
  const auto batch = churn.next(view, ids);
  EXPECT_EQ(batch.joins.size(), batch.leaves.size());
}

TEST(SponsorFloodChurn, FloodsSingleSponsor) {
  support::Rng rng(9);
  SponsorFloodChurn churn(0.2, 3.0, rng);
  const auto members = make_members(50);
  sim::IdAllocator ids(1000);
  ChurnView view{0, members, {}};
  const auto batch = churn.next(view, ids);
  ASSERT_FALSE(batch.joins.empty());
  EXPECT_LE(batch.joins.size(), 3u);  // ceil(rate) cap
  const sim::NodeId sponsor = batch.joins.front().second;
  for (const auto& [fresh, s] : batch.joins) EXPECT_EQ(s, sponsor);
}

TEST(BurstChurn, QuietBetweenBursts) {
  support::Rng rng(10);
  BurstChurn churn(0.2, 2.0, 3, rng);
  const auto members = make_members(30);
  sim::IdAllocator ids(1000);
  ChurnView view{0, members, {}};
  EXPECT_TRUE(churn.next(view, ids).leaves.empty());
  EXPECT_TRUE(churn.next(view, ids).leaves.empty());
  EXPECT_FALSE(churn.next(view, ids).leaves.empty());
  EXPECT_TRUE(churn.next(view, ids).leaves.empty());
}

sim::TopologySnapshot ring_snapshot(std::size_t n) {
  sim::TopologySnapshot snap;
  snap.round = 0;
  for (std::size_t i = 0; i < n; ++i) snap.nodes.push_back(i);
  for (std::size_t i = 0; i < n; ++i) {
    snap.edges.emplace_back(i, (i + 1) % n);
  }
  return snap;
}

// Tests hand adversaries a view directly (lateness 0: the trivial contract),
// standing in for the harness serve site.
sim::StaleSnapshotView stale(const sim::TopologySnapshot& snap) {
  return sim::StaleSnapshotView(&snap, snap.round, 0);
}

TEST(RandomDos, RespectsBudgetAndNodeSet) {
  support::Rng rng(11);
  RandomDos dos(rng);
  const auto snap = ring_snapshot(20);
  const auto blocked = dos.choose(stale(snap), {}, 7, 0);
  EXPECT_EQ(blocked.size(), 7u);
  for (auto node : blocked.sorted_ids()) EXPECT_LT(node, 20u);
}

TEST(RandomDos, NoSnapshotBlocksNothing) {
  support::Rng rng(12);
  RandomDos dos(rng);
  EXPECT_EQ(dos.choose(sim::StaleSnapshotView{}, {}, 10, 0).size(), 0u);
}

TEST(IsolationDos, IsolatesANonBlockedVictim) {
  support::Rng rng(13);
  IsolationDos dos(rng);
  const auto snap = ring_snapshot(20);
  // Budget 2 = exactly one victim's two ring neighbors.
  const auto blocked = dos.choose(stale(snap), {}, 2, 0);
  EXPECT_EQ(blocked.size(), 2u);
  // Some NON-blocked node has both its ring neighbors blocked: isolated.
  bool isolated = false;
  for (sim::NodeId v = 0; v < 20; ++v) {
    if (blocked.contains(v)) continue;
    const auto prev = (v + 19) % 20;
    const auto next = (v + 1) % 20;
    if (blocked.contains(prev) && blocked.contains(next)) isolated = true;
  }
  EXPECT_TRUE(isolated);
}

TEST(IsolationDos, SpendsFullBudget) {
  support::Rng rng(14);
  IsolationDos dos(rng);
  const auto snap = ring_snapshot(30);
  EXPECT_EQ(dos.choose(stale(snap), {}, 10, 0).size(), 10u);
}

TEST(GroupWipeDos, WipesCliquesInSnapshot) {
  // Two 4-cliques joined by one edge; budget 4 should kill one clique.
  sim::TopologySnapshot snap;
  snap.round = 0;
  for (sim::NodeId v = 0; v < 8; ++v) snap.nodes.push_back(v);
  for (sim::NodeId a = 0; a < 4; ++a) {
    for (sim::NodeId b = a + 1; b < 4; ++b) snap.edges.emplace_back(a, b);
  }
  for (sim::NodeId a = 4; a < 8; ++a) {
    for (sim::NodeId b = a + 1; b < 8; ++b) snap.edges.emplace_back(a, b);
  }
  snap.edges.emplace_back(0, 4);
  support::Rng rng(15);
  GroupWipeDos dos(rng);
  const auto blocked = dos.choose(stale(snap), {}, 4, 0);
  EXPECT_EQ(blocked.size(), 4u);
  // All four blocked nodes belong to the same clique.
  std::size_t low = 0, high = 0;
  for (auto v : blocked.sorted_ids()) (v < 4 ? low : high) += 1;
  EXPECT_TRUE(low == 4 || high == 4 ||
              // 0 and 4 have an extra neighbor, so the clique including them
              // may be rejected under a tight budget; accept 3+1 splits that
              // still wipe 3 of 4 members.
              low >= 3 || high >= 3);
}

// Two disjoint 4-cliques: the unambiguous apparent-group partition
// {0,1,2,3} / {4,5,6,7}.
sim::TopologySnapshot two_cliques_snapshot(sim::Round round) {
  sim::TopologySnapshot snap;
  snap.round = round;
  for (sim::NodeId v = 0; v < 8; ++v) snap.nodes.push_back(v);
  for (sim::NodeId a = 0; a < 4; ++a) {
    for (sim::NodeId b = a + 1; b < 4; ++b) snap.edges.emplace_back(a, b);
  }
  for (sim::NodeId a = 4; a < 8; ++a) {
    for (sim::NodeId b = a + 1; b < 8; ++b) snap.edges.emplace_back(a, b);
  }
  return snap;
}

// The same eight nodes regrouped across the old boundary: neither original
// clique survives as a majority anywhere.
sim::TopologySnapshot regrouped_cliques_snapshot(sim::Round round) {
  sim::TopologySnapshot snap;
  snap.round = round;
  for (sim::NodeId v = 0; v < 8; ++v) snap.nodes.push_back(v);
  const std::vector<std::vector<sim::NodeId>> cliques{{0, 1, 4, 5},
                                                      {2, 3, 6, 7}};
  for (const auto& clique : cliques) {
    for (std::size_t i = 0; i < clique.size(); ++i) {
      for (std::size_t j = i + 1; j < clique.size(); ++j) {
        snap.edges.emplace_back(clique[i], clique[j]);
      }
    }
  }
  return snap;
}

TEST(AdaptiveDos, WipesApparentGroupsWhilePersistenceHolds) {
  AdaptiveDos dos(support::Rng(20));
  EXPECT_DOUBLE_EQ(dos.persistence(), 1.0);
  // Initial persistence 1.0: the whole budget goes to whole-group wipes,
  // smallest group first with ties broken on the lowest member id.
  const auto snap_a = two_cliques_snapshot(0);
  const auto first = dos.choose(stale(snap_a), {}, 4, 10);
  EXPECT_EQ(first.sorted_ids(), (std::vector<sim::NodeId>{0, 1, 2, 3}));
  // The next snapshot shows the same partition: the attacked group
  // persisted, so the belief (and the strategy) holds.
  const auto snap_b = two_cliques_snapshot(5);
  const auto second = dos.choose(stale(snap_b), {}, 4, 15);
  EXPECT_EQ(second.sorted_ids(), (std::vector<sim::NodeId>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(dos.persistence(), 1.0);
}

TEST(AdaptiveDos, PersistenceDecaysWhenReconfigurationDissolvesGroups) {
  AdaptiveDos dos(support::Rng(20));
  const auto snap_a = two_cliques_snapshot(0);
  (void)dos.choose(stale(snap_a), {}, 4, 10);
  // Reconfiguration regrouped the nodes: no current group holds a strict
  // majority of the attacked one, so the persistence belief halves and the
  // budget shifts from group wipes to random pressure.
  const auto snap_c = regrouped_cliques_snapshot(10);
  const auto plan = dos.choose(stale(snap_c), {}, 4, 20);
  EXPECT_DOUBLE_EQ(dos.persistence(), 0.5);
  EXPECT_EQ(plan.size(), 4u);  // budget still fully spent
  for (auto node : plan.sorted_ids()) EXPECT_LT(node, 8u);
}

TEST(AdaptiveDos, EmptyViewFallsBackToRandomOverUniverse) {
  AdaptiveDos dos(support::Rng(21));
  const auto universe = make_members(30);
  const auto blocked =
      dos.choose(sim::StaleSnapshotView{}, universe, 5, 0);
  EXPECT_EQ(blocked.size(), 5u);
  for (auto node : blocked.sorted_ids()) EXPECT_LT(node, 30u);
}

TEST(AdaptiveDos, LeakProbeOutputIsFunctionOfViewAndOwnState) {
  // Replay probe: two identically-seeded adversaries fed the same view
  // CONTENTS through distinct snapshot objects must produce identical plans
  // step for step. A divergence would mean the output depends on something
  // beyond (stale view, universe, budget, own state) — object identity,
  // hidden globals, live overlay state: exactly the covert channels
  // reconfnet_oraclecheck bans statically and RECONFNET_ORACLEAUDIT checks
  // dynamically.
  AdaptiveDos a(support::Rng(22));
  AdaptiveDos b(support::Rng(22));
  for (int step = 0; step < 6; ++step) {
    const auto round = static_cast<sim::Round>(5 * step);
    const auto snap_a = two_cliques_snapshot(round);
    auto snap_b = two_cliques_snapshot(round);
    snap_b.nodes.reserve(64);  // same observable content, different object
    const auto view_a = stale(snap_a);
    const auto view_b = stale(snap_b);
    const auto plan_a = a.choose(view_a, {}, 3, 100 + step);
    const auto plan_b = b.choose(view_b, {}, 3, 100 + step);
    EXPECT_EQ(plan_a.sorted_ids(), plan_b.sorted_ids()) << "step " << step;
    // The access log proves the reads went through the audited view.
    EXPECT_GT(view_a.reads(), 0u);
    EXPECT_EQ(view_a.reads(), view_b.reads());
  }
}

}  // namespace
}  // namespace reconfnet::adversary
