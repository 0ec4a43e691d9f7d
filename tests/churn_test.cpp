#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "adversary/churn.hpp"
#include "churn/active_search.hpp"
#include "churn/overlay.hpp"
#include "churn/reconfigure.hpp"
#include "churn_rules.hpp"
#include "graph/hgraph.hpp"
#include "sim/delivery.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace reconfnet::churn {
namespace {

std::vector<std::size_t> ring_succ(std::size_t n) {
  std::vector<std::size_t> succ(n);
  for (std::size_t v = 0; v < n; ++v) succ[v] = (v + 1) % n;
  return succ;
}

TEST(LargestEmptySegment, HandBuiltCases) {
  // Ring 0->1->...->7->0; active = {0, 4}: two empty segments of size 3.
  std::vector<bool> active(8, false);
  active[0] = active[4] = true;
  EXPECT_EQ(largest_empty_segment(ring_succ(8), active), 3u);

  active.assign(8, true);
  EXPECT_EQ(largest_empty_segment(ring_succ(8), active), 0u);

  active.assign(8, false);
  EXPECT_EQ(largest_empty_segment(ring_succ(8), active), 8u);

  active.assign(8, false);
  active[2] = true;
  EXPECT_EQ(largest_empty_segment(ring_succ(8), active), 7u);
}

/// Brute-force closest active successor following succ.
std::size_t brute_next_active(const std::vector<std::size_t>& succ,
                              const std::vector<bool>& active,
                              std::size_t v) {
  std::size_t w = succ[v];
  for (std::size_t steps = 0; steps < succ.size(); ++steps) {
    if (active[w]) return w;
    w = succ[w];
  }
  return kNoIndex;
}

class ActiveSearchParam
    : public ::testing::TestWithParam<std::pair<std::size_t, double>> {};

TEST_P(ActiveSearchParam, MatchesBruteForce) {
  const auto [n, active_fraction] = GetParam();
  support::Rng rng(n * 31 + 7);
  // Random cycle, random active set.
  const auto order = rng.permutation(n);
  std::vector<std::size_t> succ(n);
  for (std::size_t i = 0; i < n; ++i) succ[order[i]] = order[(i + 1) % n];
  std::vector<bool> active(n, false);
  std::size_t active_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (rng.bernoulli(active_fraction)) {
      active[v] = true;
      ++active_count;
    }
  }
  if (active_count == 0) {
    active[order[0]] = true;  // guarantee at least one
  }

  const auto result = find_active_neighbors(succ, active, 32);
  ASSERT_TRUE(result.success);
  std::vector<std::size_t> pred(n);
  for (std::size_t v = 0; v < n; ++v) pred[succ[v]] = v;
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(result.next_active[v], brute_next_active(succ, active, v));
    EXPECT_EQ(result.prev_active[v], brute_next_active(pred, active, v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ActiveSearchParam,
    ::testing::Values(std::pair<std::size_t, double>{8, 0.5},
                      std::pair<std::size_t, double>{33, 0.3},
                      std::pair<std::size_t, double>{64, 0.1},
                      std::pair<std::size_t, double>{100, 0.05},
                      std::pair<std::size_t, double>{128, 0.9},
                      std::pair<std::size_t, double>{200, 0.02}));

TEST(ActiveSearch, SingleActiveNodePointsEveryoneAtIt) {
  const std::size_t n = 16;
  std::vector<bool> active(n, false);
  active[5] = true;
  const auto result = find_active_neighbors(ring_succ(n), active, 16);
  ASSERT_TRUE(result.success);
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(result.next_active[v], 5u);
    EXPECT_EQ(result.prev_active[v], 5u);
  }
}

TEST(ActiveSearch, AllActiveFinishesInOneStep) {
  const std::size_t n = 32;
  std::vector<bool> active(n, true);
  const auto result = find_active_neighbors(ring_succ(n), active, 16);
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.rounds, 2);  // one query/reply exchange
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(result.next_active[v], (v + 1) % n);
    EXPECT_EQ(result.prev_active[v], (v + n - 1) % n);
  }
}

TEST(ActiveSearch, NoActiveNodeFails) {
  std::vector<bool> active(16, false);
  const auto result = find_active_neighbors(ring_succ(16), active, 16);
  EXPECT_FALSE(result.success);
}

TEST(ActiveSearch, InsufficientBudgetFails) {
  // Gap of 15 needs ~4 doubling steps; give it 1.
  std::vector<bool> active(16, false);
  active[0] = true;
  const auto result = find_active_neighbors(ring_succ(16), active, 1);
  EXPECT_FALSE(result.success);
}

TEST(ActiveSearch, RoundsAreLogarithmicInGap) {
  // Doubling: gap g needs about log2(g) steps of 2 rounds each.
  const std::size_t n = 1024;
  std::vector<bool> active(n, false);
  active[0] = true;
  const auto result = find_active_neighbors(ring_succ(n), active, 32);
  ASSERT_TRUE(result.success);
  EXPECT_LE(result.rounds, 2 * 12);
}

// --- reconfigure ------------------------------------------------------------

ReconfigInput basic_input(const graph::HGraph& g,
                          const std::vector<sim::NodeId>& members) {
  ReconfigInput input;
  input.topology = &g;
  input.members = members;
  input.leaving.assign(members.size(), false);
  input.joiners.assign(members.size(), {});
  input.sampling.c = 2.0;
  input.estimate = sampling::SizeEstimate::from_true_size(members.size());
  return input;
}

std::vector<sim::NodeId> iota_ids(std::size_t n) {
  std::vector<sim::NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), sim::NodeId{100});
  return ids;
}

TEST(Reconfigure, NoChurnKeepsMemberSet) {
  support::Rng rng(1);
  const auto g = graph::HGraph::random(64, 8, rng);
  const auto members = iota_ids(64);
  auto epoch_rng = rng.split(1);
  const auto result = reconfigure(basic_input(g, members), epoch_rng);
  ASSERT_TRUE(result.success) << result.failure_reason;
  ASSERT_TRUE(result.new_topology.has_value());
  EXPECT_EQ(result.new_topology->size(), 64u);
  EXPECT_EQ(result.new_topology->degree(), 8);
  std::unordered_set<sim::NodeId> before(members.begin(), members.end());
  std::unordered_set<sim::NodeId> after(result.new_members.begin(),
                                        result.new_members.end());
  EXPECT_EQ(before, after);
  EXPECT_GT(result.rounds, 0);
}

TEST(Reconfigure, JoinersAreWovenIn) {
  support::Rng rng(2);
  const auto g = graph::HGraph::random(32, 8, rng);
  auto input = basic_input(g, iota_ids(32));
  input.joiners[3] = {900, 901};
  input.joiners[17] = {902};
  auto epoch_rng = rng.split(1);
  const auto result = reconfigure(input, epoch_rng);
  ASSERT_TRUE(result.success) << result.failure_reason;
  std::unordered_set<sim::NodeId> after(result.new_members.begin(),
                                        result.new_members.end());
  EXPECT_TRUE(after.contains(900));
  EXPECT_TRUE(after.contains(901));
  EXPECT_TRUE(after.contains(902));
  EXPECT_EQ(after.size(), 35u);
  EXPECT_EQ(result.new_topology->size(), 35u);
}

TEST(Reconfigure, LeaversAreExcluded) {
  support::Rng rng(3);
  const auto g = graph::HGraph::random(32, 8, rng);
  auto input = basic_input(g, iota_ids(32));
  input.leaving[0] = input.leaving[5] = input.leaving[31] = true;
  auto epoch_rng = rng.split(1);
  const auto result = reconfigure(input, epoch_rng);
  ASSERT_TRUE(result.success) << result.failure_reason;
  std::unordered_set<sim::NodeId> after(result.new_members.begin(),
                                        result.new_members.end());
  EXPECT_FALSE(after.contains(100));
  EXPECT_FALSE(after.contains(105));
  EXPECT_FALSE(after.contains(131));
  EXPECT_EQ(after.size(), 29u);
}

TEST(Reconfigure, LeaverStillPlacesItsJoiners) {
  support::Rng rng(4);
  const auto g = graph::HGraph::random(32, 8, rng);
  auto input = basic_input(g, iota_ids(32));
  input.leaving[7] = true;
  input.joiners[7] = {950};
  auto epoch_rng = rng.split(1);
  const auto result = reconfigure(input, epoch_rng);
  ASSERT_TRUE(result.success) << result.failure_reason;
  std::unordered_set<sim::NodeId> after(result.new_members.begin(),
                                        result.new_members.end());
  EXPECT_FALSE(after.contains(107));
  EXPECT_TRUE(after.contains(950));
}

TEST(Reconfigure, AllLeavingFails) {
  support::Rng rng(5);
  const auto g = graph::HGraph::random(16, 8, rng);
  auto input = basic_input(g, iota_ids(16));
  input.leaving.assign(16, true);
  auto epoch_rng = rng.split(1);
  const auto result = reconfigure(input, epoch_rng);
  EXPECT_FALSE(result.success);
}

TEST(Reconfigure, ZeroSearchBudgetFails) {
  support::Rng rng(6);
  const auto g = graph::HGraph::random(32, 8, rng);
  auto input = basic_input(g, iota_ids(32));
  input.active_search_steps = 0;
  auto epoch_rng = rng.split(1);
  const auto result = reconfigure(input, epoch_rng);
  EXPECT_FALSE(result.success);
  EXPECT_FALSE(result.failure_reason.empty());
}

TEST(Reconfigure, DeterministicGivenSeed) {
  support::Rng rng(7);
  const auto g = graph::HGraph::random(32, 8, rng);
  const auto input = basic_input(g, iota_ids(32));
  support::Rng a(99), b(99);
  const auto ra = reconfigure(input, a);
  const auto rb = reconfigure(input, b);
  ASSERT_TRUE(ra.success);
  ASSERT_TRUE(rb.success);
  EXPECT_EQ(ra.new_members, rb.new_members);
  for (int c = 0; c < ra.new_topology->num_cycles(); ++c) {
    for (std::size_t v = 0; v < ra.new_topology->size(); ++v) {
      EXPECT_EQ(ra.new_topology->succ(c, v), rb.new_topology->succ(c, v));
    }
  }
}

TEST(Reconfigure, CycleStatsArePopulated) {
  support::Rng rng(8);
  const auto g = graph::HGraph::random(128, 8, rng);
  auto epoch_rng = rng.split(1);
  const auto result = reconfigure(basic_input(g, iota_ids(128)), epoch_rng);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.cycle_stats.size(), 4u);
  for (const auto& stats : result.cycle_stats) {
    EXPECT_GT(stats.active_nodes, 0u);
    EXPECT_GT(stats.max_times_chosen, 0u);
    // Lemma 11/12: polylogarithmic; generous check against log^2 n = 49.
    EXPECT_LE(stats.max_times_chosen, 49u);
    EXPECT_LE(stats.max_empty_segment, 49u);
  }
}

TEST(Reconfigure, Lemma10NewCycleIsUniform) {
  // With 4 nodes there are (4-1)! / ... = 6 distinct directed Hamilton
  // cycles (successor permutations that are 4-cycles). Algorithm 3 must hit
  // each with equal probability (Lemma 10 / Theorem 4).
  support::Rng rng(9);
  const auto g = graph::HGraph::random(4, 6, rng);
  const auto members = iota_ids(4);
  std::map<std::vector<sim::NodeId>, std::uint64_t> histogram;
  const int kRuns = 600;
  int retries = 0;
  for (int run = 0; run < kRuns; ++run) {
    auto input = basic_input(g, members);
    // At n = 4 the w.h.p. guarantee of Lemma 7 is weak and sampling runs dry
    // in ~1.5% of epochs; the overlay retries failed epochs, and so do we.
    ReconfigResult result;
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 20);
      auto epoch_rng =
          rng.split(static_cast<std::uint64_t>(run) * 100 + 1000 +
                    static_cast<std::uint64_t>(attempt));
      result = reconfigure(input, epoch_rng);
      if (result.success) break;
      ++retries;
    }
    EXPECT_LT(retries, kRuns / 10);
    // Canonical signature of cycle 0: successor id of each member id,
    // starting from id 100.
    std::unordered_map<sim::NodeId, std::size_t> index;
    for (std::size_t i = 0; i < result.new_members.size(); ++i) {
      index[result.new_members[i]] = i;
    }
    std::vector<sim::NodeId> signature;
    sim::NodeId current = 100;
    for (int step = 0; step < 4; ++step) {
      const auto next_index = result.new_topology->succ(
          0, index.at(current));
      current = result.new_members[next_index];
      signature.push_back(current);
    }
    ++histogram[signature];
  }
  ASSERT_EQ(histogram.size(), 6u) << "not all 6 cycles were generated";
  std::vector<std::uint64_t> counts;
  for (const auto& [signature, count] : histogram) counts.push_back(count);
  EXPECT_GT(support::chi_square_uniform(counts).p_value, 1e-4);
}

TEST(Reconfigure, PlainWalkPhase1ProducesValidTopologyButMoreRounds) {
  // Ablation A4's correctness side: the plain-walk Phase 1 yields the same
  // valid uniformly random H-graph, just in Theta(log n) rounds.
  support::Rng rng(21);
  const auto g = graph::HGraph::random(128, 8, rng);
  auto input = basic_input(g, iota_ids(128));

  auto rapid_rng = rng.split(1);
  const auto rapid = reconfigure(input, rapid_rng);
  ASSERT_TRUE(rapid.success) << rapid.failure_reason;

  input.use_plain_walk_sampling = true;
  auto plain_rng = rng.split(2);
  const auto plain = reconfigure(input, plain_rng);
  ASSERT_TRUE(plain.success) << plain.failure_reason;

  std::unordered_set<sim::NodeId> before(input.members.begin(),
                                         input.members.end());
  std::unordered_set<sim::NodeId> after(plain.new_members.begin(),
                                        plain.new_members.end());
  EXPECT_EQ(before, after);
  EXPECT_EQ(plain.new_topology->size(), 128u);
  EXPECT_GT(plain.rounds, rapid.rounds);
}

// --- overlay ----------------------------------------------------------------

ChurnOverlay::Config overlay_config(std::size_t n, std::uint64_t seed) {
  ChurnOverlay::Config config;
  config.initial_size = n;
  config.degree = 8;
  config.sampling.c = 2.0;
  config.seed = seed;
  return config;
}

TEST(ChurnOverlay, NoChurnEpochKeepsMembership) {
  ChurnOverlay overlay(overlay_config(64, 1));
  adversary::NoChurn quiet;
  const auto before = overlay.members();
  const auto report = overlay.run_epoch(quiet);
  EXPECT_TRUE(report.success) << report.failure_reason;
  EXPECT_TRUE(report.connected);
  EXPECT_EQ(report.members_before, 64u);
  EXPECT_EQ(report.members_after, 64u);
  std::unordered_set<sim::NodeId> b(before.begin(), before.end());
  std::unordered_set<sim::NodeId> a(overlay.members().begin(),
                                    overlay.members().end());
  EXPECT_EQ(a, b);
  EXPECT_GT(overlay.round(), 0);
}

TEST(ChurnOverlay, ChurnTakesEffectNextEpoch) {
  ChurnOverlay overlay(overlay_config(64, 2));
  support::Rng rng(3);
  adversary::UniformChurn churn(0.05, 1.0, 4.0, rng);
  const auto first = overlay.run_epoch(churn);
  EXPECT_EQ(first.members_after, 64u);  // churn staged, not yet applied
  EXPECT_EQ(first.joins_applied, 0u);
  adversary::NoChurn quiet;
  const auto second = overlay.run_epoch(quiet);
  EXPECT_TRUE(second.success);
  // Whatever was staged in epoch 1 is applied in epoch 2.
  EXPECT_GT(second.joins_applied + second.leaves_applied, 0u);
}

TEST(ChurnOverlay, SurvivesSustainedUniformChurn) {
  // Theorem 5: connectivity under constant churn rate. 2% of members churn
  // per *round*, i.e. tens of percent per epoch.
  ChurnOverlay overlay(overlay_config(128, 4));
  support::Rng rng(5);
  adversary::UniformChurn churn(0.02, 1.0, 2.0, rng);
  for (int epoch = 0; epoch < 8; ++epoch) {
    const auto report = overlay.run_epoch(churn);
    ASSERT_TRUE(report.success) << "epoch " << epoch << ": "
                                << report.failure_reason;
    ASSERT_TRUE(report.connected) << "epoch " << epoch;
    ASSERT_GE(overlay.members().size(), 3u);
  }
}

TEST(ChurnOverlay, SurvivesTopologyAwareSegmentChurn) {
  ChurnOverlay overlay(overlay_config(128, 6));
  support::Rng rng(7);
  adversary::SegmentChurn churn(0.02, 2.0, rng);
  // Epochs fail with small probability (sampling runs dry); the overlay
  // keeps its old topology and retries, so the guarantee to test is that
  // connectivity is NEVER lost and most epochs reorganize.
  int ok = 0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    churn.set_order(overlay.cycle_order(0));  // omniscient: fresh order
    const auto report = overlay.run_epoch(churn);
    ok += report.success ? 1 : 0;
    ASSERT_TRUE(report.connected) << "epoch " << epoch;
  }
  EXPECT_GE(ok, 4);
}

TEST(ChurnOverlay, SurvivesSponsorFlood) {
  ChurnOverlay overlay(overlay_config(64, 8));
  support::Rng rng(9);
  adversary::SponsorFloodChurn churn(0.01, 4.0, rng);
  for (int epoch = 0; epoch < 5; ++epoch) {
    const auto report = overlay.run_epoch(churn);
    ASSERT_TRUE(report.success) << report.failure_reason;
    ASSERT_TRUE(report.connected);
  }
}

TEST(ChurnOverlay, MembershipIsMonotonic) {
  // Every id enters at most once and never reappears after leaving.
  ChurnOverlay overlay(overlay_config(64, 10));
  support::Rng rng(11);
  adversary::UniformChurn churn(0.02, 1.0, 2.0, rng);
  std::unordered_set<sim::NodeId> seen_gone;
  for (int epoch = 0; epoch < 6; ++epoch) {
    std::unordered_set<sim::NodeId> before(overlay.members().begin(),
                                           overlay.members().end());
    const auto report = overlay.run_epoch(churn);
    ASSERT_TRUE(report.success);
    std::unordered_set<sim::NodeId> after(overlay.members().begin(),
                                          overlay.members().end());
    for (sim::NodeId id : after) {
      EXPECT_FALSE(seen_gone.contains(id))
          << "id " << id << " re-entered after leaving";
    }
    for (sim::NodeId id : before) {
      if (!after.contains(id)) seen_gone.insert(id);
    }
  }
}

// Section 1.1's churn rule (tests/churn_rules.hpp), on the churn overlay.
ChurnOverlay make_overlay(std::uint64_t seed) {
  return ChurnOverlay(overlay_config(32, seed));
}

TEST(ChurnOverlay, RejectsAReusedNodeId) {
  churn_rules::expect_rejects_reused_ids(make_overlay, 32);
}

TEST(ChurnOverlay, RejectsAJoinIdTheOverlayNeverIssued) {
  churn_rules::expect_rejects_unissued_ids(make_overlay, 32);
}

TEST(ChurnOverlay, RejectsASponsorWhoseLeaveIsStaged) {
  churn_rules::expect_rejects_a_leaving_sponsor(make_overlay, 32);
}

TEST(ChurnOverlay, DelegatesTheJoinsOfADepartedSponsor) {
  churn_rules::expect_delegates_a_departed_sponsors_joins(make_overlay);
}

/// Drops every message while `drop` is set.
class DropWhileSet final : public sim::DeliveryHook {
 public:
  void on_message(sim::NodeId, sim::NodeId, sim::Round,
                  std::vector<sim::Round>& deliveries) override {
    if (!drop) deliveries.push_back(0);
  }
  bool reorder(sim::NodeId, sim::Round, std::size_t,
               std::vector<std::size_t>&) override {
    return false;
  }
  void on_step(sim::Round) override {}

  bool drop = false;
};

TEST(ChurnOverlay, FailedEpochKeepsItsJoins) {
  // Epoch 1 runs with every message dropped and runs dry; the join staged
  // in epoch 0 is staged again and takes effect at the end of epoch 2.
  DropWhileSet hook;
  const auto make = [&hook](std::uint64_t seed) {
    auto config = overlay_config(64, seed);
    config.fault_hook = &hook;
    return ChurnOverlay(config);
  };
  const auto run_dry = [&hook](ChurnOverlay& overlay,
                               adversary::ChurnAdversary& adversary) {
    hook.drop = true;
    auto report = overlay.run_epoch(adversary);
    hook.drop = false;
    return report;
  };
  churn_rules::expect_a_failed_epoch_keeps_its_joins(
      make, run_dry, "rapid node sampling ran dry");
}

TEST(ChurnOverlay, GrowthAndShrinkage) {
  // Growth factor 2 on each leave: the network grows across epochs.
  ChurnOverlay grow(overlay_config(64, 12));
  support::Rng rng(13);
  adversary::UniformChurn churn(0.02, 2.0, 4.0, rng);
  for (int epoch = 0; epoch < 4; ++epoch) {
    ASSERT_TRUE(grow.run_epoch(churn).success);
  }
  EXPECT_GT(grow.members().size(), 64u);

  ChurnOverlay shrink(overlay_config(64, 14));
  adversary::UniformChurn leaver(0.02, 0.0, 2.0, rng.split(1));
  for (int epoch = 0; epoch < 4; ++epoch) {
    ASSERT_TRUE(shrink.run_epoch(leaver).success);
  }
  EXPECT_LT(shrink.members().size(), 64u);
}

TEST(ChurnOverlay, CycleOrderVisitsEveryMemberOnce) {
  ChurnOverlay overlay(overlay_config(32, 15));
  const auto order = overlay.cycle_order(0);
  EXPECT_EQ(order.size(), 32u);
  std::unordered_set<sim::NodeId> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), 32u);
}

TEST(ChurnOverlay, BurstChurnIsAbsorbed) {
  ChurnOverlay overlay(overlay_config(96, 16));
  support::Rng rng(17);
  adversary::BurstChurn churn(0.3, 2.0, 7, rng);
  for (int epoch = 0; epoch < 6; ++epoch) {
    const auto report = overlay.run_epoch(churn);
    ASSERT_TRUE(report.success) << report.failure_reason;
    ASSERT_TRUE(report.connected);
  }
}

}  // namespace
}  // namespace reconfnet::churn
