#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "adversary/dos.hpp"
#include "dos/group_epoch.hpp"
#include "dos/group_table.hpp"
#include "dos/overlay.hpp"
#include "graph/connectivity.hpp"
#include "support/rng.hpp"

namespace reconfnet::dos {
namespace {

TEST(ChooseDimension, MatchesPaperFormula) {
  // d is the largest integer with 2^d <= n / (c log2 n).
  EXPECT_EQ(choose_dimension(1024, 2, 1.0), 6);   // 1024/10.0 = 102.4
  EXPECT_EQ(choose_dimension(1024, 2, 2.0), 5);   // 51.2
  EXPECT_EQ(choose_dimension(65536, 2, 1.0), 12); // 4096
  EXPECT_GE(choose_dimension(64, 2, 4.0), 1);
}

TEST(GroupTable, RandomAssignsEveryNodeOnce) {
  support::Rng rng(1);
  std::vector<sim::NodeId> nodes(256);
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i] = i + 1000;
  const auto table = GroupTable::random(4, nodes, rng);
  EXPECT_EQ(table.size(), 256u);
  EXPECT_EQ(table.supernodes(), 16u);
  std::size_t total = 0;
  for (std::uint64_t x = 0; x < table.supernodes(); ++x) {
    const auto& members = table.group(x);
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    for (sim::NodeId node : members) {
      EXPECT_EQ(table.supernode_of(node), x);
    }
    total += members.size();
  }
  EXPECT_EQ(total, 256u);
  EXPECT_GE(table.min_group_size(), 1u);
  EXPECT_LE(table.max_group_size(), 40u);  // mean 16, whp bounded
}

TEST(GroupTable, RejectsInvalidConfigurations) {
  // Empty group.
  EXPECT_THROW(GroupTable(1, {{1, 2}, {}}), std::invalid_argument);
  // Node in two groups.
  EXPECT_THROW(GroupTable(1, {{1, 2}, {2, 3}}), std::invalid_argument);
  // Wrong group count.
  EXPECT_THROW(GroupTable(2, {{1}, {2}}), std::invalid_argument);
}

TEST(GroupTable, OverlayEdgesAreCliquesPlusBipartite) {
  // d = 1: groups {1,2} and {3}; expect clique edge (1,2) and bipartite
  // (1,3), (2,3).
  const GroupTable table(1, {{1, 2}, {3}});
  auto edges = table.overlay_edges();
  EXPECT_EQ(edges.size(), 3u);
  auto has = [&](sim::NodeId a, sim::NodeId b) {
    return std::any_of(edges.begin(), edges.end(), [&](const auto& e) {
      return (e.first == a && e.second == b) ||
             (e.first == b && e.second == a);
    });
  };
  EXPECT_TRUE(has(1, 2));
  EXPECT_TRUE(has(1, 3));
  EXPECT_TRUE(has(2, 3));
}

TEST(GroupTable, OverlayIsConnectedWithoutBlocking) {
  support::Rng rng(2);
  std::vector<sim::NodeId> nodes(512);
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i] = i;
  const auto table = GroupTable::random(5, nodes, rng);
  EXPECT_TRUE(graph::is_connected(table.all_nodes(), table.overlay_edges()));
}

DosOverlay::Config overlay_config(std::size_t n, std::uint64_t seed) {
  DosOverlay::Config config;
  config.size = n;
  config.group_c = 1.0;
  config.seed = seed;
  return config;
}

TEST(DosOverlay, QuietEpochReorganizes) {
  DosOverlay overlay(overlay_config(512, 1));
  const auto before = overlay.groups().all_nodes();
  std::unordered_map<sim::NodeId, std::uint64_t> old_assignment;
  for (sim::NodeId node : before) {
    old_assignment[node] = overlay.groups().supernode_of(node);
  }
  const auto report = overlay.run_epoch({});
  EXPECT_TRUE(report.success) << report.failure_reason;
  EXPECT_TRUE(report.reorganized);
  EXPECT_EQ(report.silenced_group_rounds, 0u);
  EXPECT_EQ(report.disconnected_rounds, 0u);
  EXPECT_DOUBLE_EQ(report.min_available_fraction, 1.0);
  EXPECT_GT(report.rounds, 0);
  // Node set unchanged, assignment rerandomized.
  std::size_t moved = 0;
  for (sim::NodeId node : overlay.groups().all_nodes()) {
    if (overlay.groups().supernode_of(node) != old_assignment.at(node)) {
      ++moved;
    }
  }
  EXPECT_GT(moved, before.size() / 2);
}

TEST(DosOverlay, EpochTakesLogLogRounds) {
  DosOverlay overlay(overlay_config(1024, 2));
  const auto report = overlay.run_epoch({});
  ASSERT_TRUE(report.success);
  // 4 rounds per sampler iteration + 4 reorganization rounds; with d = 6
  // the sampler runs ceil(log2 6) = 3 iterations -> 16 rounds.
  EXPECT_EQ(report.rounds, 16);
}

TEST(DosOverlay, GroupSizesStayBalanced) {
  // Lemma 16: (1-delta) n/N < |R(x)| < (1+delta) n/N w.h.p.
  DosOverlay overlay(overlay_config(2048, 3));
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto report = overlay.run_epoch({});
    ASSERT_TRUE(report.success) << report.failure_reason;
    const double avg = static_cast<double>(overlay.size()) /
                       static_cast<double>(overlay.groups().supernodes());
    EXPECT_GT(static_cast<double>(report.min_group_size), 0.2 * avg);
    EXPECT_LT(static_cast<double>(report.max_group_size), 3.0 * avg);
  }
}

TEST(DosOverlay, SurvivesRandomAttackAtHalfMinusEpsilon) {
  // Theorem 6 with eps = 0.15: the adversary blocks 35% of all nodes every
  // round but cannot target groups it cannot see. Lemma 17 requires the
  // group-size constant c to be large enough for the blocking fraction;
  // group_c = 2 gives groups of ~32 nodes at this scale.
  auto config = overlay_config(1024, 4);
  config.group_c = 2.0;
  DosOverlay overlay(config);
  support::Rng rng(5);
  adversary::RandomDos adversary(rng);
  Attack attack;
  attack.adversary = &adversary;
  attack.lateness = 64;  // > 2t for this configuration
  attack.blocked_fraction = 0.35;
  for (int epoch = 0; epoch < 4; ++epoch) {
    const auto report = overlay.run_epoch(attack);
    EXPECT_TRUE(report.success) << "epoch " << epoch << ": "
                                << report.failure_reason;
    EXPECT_EQ(report.disconnected_rounds, 0u);
    EXPECT_GT(report.min_available_fraction, 0.0);
  }
}

TEST(DosOverlay, StaticOverlayFallsToZeroLateIsolation) {
  // The impossibility direction: a 0-late adversary that sees the live
  // topology isolates a node of the *static* overlay and disconnects it.
  DosOverlay overlay(overlay_config(512, 6));
  support::Rng rng(7);
  adversary::IsolationDos adversary(rng);
  Attack attack;
  attack.adversary = &adversary;
  attack.lateness = 0;
  attack.blocked_fraction = 0.45;
  const auto report = overlay.run_static(attack, 8);
  EXPECT_FALSE(report.success);
  EXPECT_GT(report.disconnected_rounds, 0u);
}

TEST(DosOverlay, ReconfiguringOverlayResistsLateIsolation) {
  // The possibility direction: the same isolation strategy with Omega(log
  // log n) lateness acts on outdated groups and fails.
  auto config = overlay_config(1024, 8);
  config.group_c = 2.0;  // Lemma 17: c scaled to the blocking fraction
  DosOverlay overlay(config);
  support::Rng rng(9);
  adversary::IsolationDos adversary(rng);
  Attack attack;
  attack.adversary = &adversary;
  attack.blocked_fraction = 0.35;
  attack.lateness = 40;  // 2t with t = 16-20 rounds per epoch
  for (int epoch = 0; epoch < 4; ++epoch) {
    const auto report = overlay.run_epoch(attack);
    EXPECT_TRUE(report.success) << "epoch " << epoch << ": "
                                << report.failure_reason;
    EXPECT_EQ(report.disconnected_rounds, 0u);
  }
}

TEST(DosOverlay, GroupWipeSilencesGroupsWhenZeroLate) {
  // A 0-late group-wiping adversary can silence entire groups (it sees the
  // current cliques); the overlay must detect this and refuse to adopt the
  // epoch's reorganization.
  DosOverlay overlay(overlay_config(512, 10));
  support::Rng rng(11);
  adversary::GroupWipeDos adversary(rng);
  Attack attack;
  attack.adversary = &adversary;
  attack.lateness = 0;
  attack.blocked_fraction = 0.45;
  const auto report = overlay.run_epoch(attack);
  EXPECT_GT(report.silenced_group_rounds, 0u);
  EXPECT_FALSE(report.success);
  EXPECT_FALSE(report.reorganized);
}

TEST(DosOverlay, LatenessIsEnforcedViaSnapshots) {
  // With lateness larger than the overlay's age the adversary gets no
  // topology snapshot — only the public id universe — so the group-wipe
  // strategy degrades to blind random blocking: it still blocks its full
  // budget but can no longer silence groups (contrast with the 0-late case
  // in GroupWipeSilencesGroupsWhenZeroLate).
  auto config = overlay_config(512, 12);
  config.group_c = 2.0;
  DosOverlay overlay(config);
  support::Rng rng(13);
  adversary::GroupWipeDos adversary(rng);
  Attack attack;
  attack.adversary = &adversary;
  attack.lateness = 1000000;
  attack.blocked_fraction = 0.45;
  const auto report = overlay.run_epoch(attack);
  EXPECT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.silenced_group_rounds, 0u);
  // The budget was actually spent: availability is visibly reduced.
  EXPECT_LT(report.min_available_fraction, 1.0);
  EXPECT_GT(report.min_available_fraction, 0.0);
}

TEST(DosOverlay, CommunicationWorkIsPolylog) {
  DosOverlay overlay(overlay_config(2048, 14));
  const auto report = overlay.run_epoch({});
  ASSERT_TRUE(report.success);
  // The state broadcast S(x) is O(log^2 n) entries of O(log n) group
  // references each, replicated to O(log n) members: O(log^4 n) ids per node
  // per round, i.e. polylog. We check the id count (bits / 64-bit id width)
  // against a generous log^7 n envelope that absorbs the schedule constants.
  const double log_n = 11.0;
  const double ids_per_round =
      static_cast<double>(report.max_node_bits_per_round) / 64.0;
  EXPECT_LT(ids_per_round, std::pow(log_n, 7.0));
  EXPECT_GT(report.max_node_bits_per_round, 0u);
}

TEST(DosOverlay, StaticRunKeepsGroupsFixed) {
  DosOverlay overlay(overlay_config(256, 15));
  std::unordered_map<sim::NodeId, std::uint64_t> before;
  for (sim::NodeId node : overlay.groups().all_nodes()) {
    before[node] = overlay.groups().supernode_of(node);
  }
  const auto report = overlay.run_static({}, 10);
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.rounds, 10);
  for (const auto& [node, x] : before) {
    EXPECT_EQ(overlay.groups().supernode_of(node), x);
  }
}

TEST(DosOverlay, SnapshotsStayWithinTheLatenessHorizonOverLongRuns) {
  // One snapshot per epoch of E rounds, kept only back to the lateness
  // horizon: a 60-late adversary needs the newest ceil(60 / E) + 1 of them,
  // however long the run.
  auto config = overlay_config(256, 16);
  config.group_c = 2.0;
  DosOverlay overlay(config);
  support::Rng rng(17);
  adversary::RandomDos adversary(rng);
  Attack attack;
  attack.adversary = &adversary;
  attack.lateness = 60;
  attack.blocked_fraction = 0.2;
  for (int epoch = 0; epoch < 64; ++epoch) {
    const auto report = overlay.run_epoch(attack);
    ASSERT_TRUE(report.success) << "epoch " << epoch << ": "
                                << report.failure_reason;
    const auto bound = static_cast<std::size_t>(
        (attack.lateness + report.rounds - 1) / report.rounds + 1);
    EXPECT_LE(overlay.snapshots().size(), bound) << "epoch " << epoch;
  }
  EXPECT_EQ(overlay.snapshots().lateness_horizon(), 60);
}

// --- shared group-level epoch (dos/group_epoch.hpp) -------------------------

using Core = sampling::HypercubeSamplerCore;

sampling::Schedule exchange_schedule() {
  // A 4-dimensional cube takes two sampler iterations, so legs lost in the
  // first one leave the second one nothing to extract.
  return sampling::group_schedule(sampling::SizeEstimate::from_true_size(256),
                                  4, 16, {});
}

TEST(GroupEpoch, LosslessExchangeFillsEverySampler) {
  const auto schedule = exchange_schedule();
  ASSERT_EQ(schedule.iterations, 2);
  support::Rng rng(3);
  int rounds = 0;
  const auto sampled = sample_supernodes(
      4, 16, schedule, rng,
      [&](int /*iteration*/, bool /*synchronization*/,
          const auto& /*cores*/) { ++rounds; },
      kNoLoss);
  EXPECT_EQ(rounds, 4 * schedule.iterations);
  EXPECT_EQ(sampled.lost_messages, 0u);
  EXPECT_EQ(sampled.dry_events, 0u);
  for (const Core& core : sampled.cores) {
    EXPECT_GE(core.samples().size(), schedule.samples_out());
  }
}

TEST(GroupEpoch, ExchangeRunsDryWhenEveryLegIsLost) {
  support::Rng rng(3);
  const auto sampled = sample_supernodes(
      4, 16, exchange_schedule(), rng,
      [](int /*iteration*/, bool /*synchronization*/,
         const auto& /*cores*/) {},
      [](std::uint64_t /*from*/, std::uint64_t /*to*/) { return true; });
  EXPECT_GT(sampled.lost_messages, 0u);
  EXPECT_GT(sampled.dry_events, 0u);
  for (const Core& core : sampled.cores) EXPECT_TRUE(core.samples().empty());
}

/// A one-dimensional sampler core of supernode x whose output is `samples`.
Core core_with_samples(std::uint64_t x, std::vector<std::uint64_t> samples) {
  Core core(1, x,
            sampling::hypercube_schedule(sampling::SizeEstimate(1), 1, {}));
  core.restore_blocks({std::move(samples)});
  return core;
}

TEST(GroupEpoch, ReassignMovesIthMemberToIthSample) {
  GroupTable groups(1, {{1, 2, 3}, {4, 5}});
  const std::vector<Core> cores{core_with_samples(0, {1, 0, 1, 0}),
                                core_with_samples(1, {0, 1})};
  EXPECT_EQ(reassign_to_samples(groups, cores), Reassignment::kDone);
  EXPECT_EQ(groups.group(0), (std::vector<sim::NodeId>{2, 4}));
  EXPECT_EQ(groups.group(1), (std::vector<sim::NodeId>{1, 3, 5}));
}

TEST(GroupEpoch, ReassignReportsSampleShortage) {
  GroupTable groups(1, {{1, 2, 3}, {4}});
  const std::vector<Core> cores{core_with_samples(0, {0, 1}),
                                core_with_samples(1, {1})};
  EXPECT_EQ(reassign_to_samples(groups, cores), Reassignment::kSampleShortage);
  EXPECT_EQ(groups.group(0), (std::vector<sim::NodeId>{1, 2, 3}));
  EXPECT_EQ(groups.group(1), (std::vector<sim::NodeId>{4}));
}

TEST(GroupEpoch, ReassignReportsEmptySupernode) {
  GroupTable groups(1, {{1, 2, 3}, {4, 5}});
  const std::vector<Core> cores{core_with_samples(0, {0, 0, 0}),
                                core_with_samples(1, {0, 0})};
  EXPECT_EQ(reassign_to_samples(groups, cores), Reassignment::kEmptySupernode);
  EXPECT_EQ(groups.group(0), (std::vector<sim::NodeId>{1, 2, 3}));
  EXPECT_EQ(groups.group(1), (std::vector<sim::NodeId>{4, 5}));
}

}  // namespace
}  // namespace reconfnet::dos
