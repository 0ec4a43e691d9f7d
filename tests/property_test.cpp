// Property-based parameterized sweeps over the protocol space. Where the
// module tests pin single configurations, these sweep (n, degree, epsilon,
// c, adversary intensity, ...) and assert the *invariants* the paper's
// lemmas promise for every point of the space.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ranges>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "adversary/churn.hpp"
#include "adversary/dos.hpp"
#include "apps/dht/kary_overlay.hpp"
#include "churn/active_search.hpp"
#include "churn/overlay.hpp"
#include "churn/reconfigure.hpp"
#include "combined/overlay.hpp"
#include "combined/split_merge.hpp"
#include "dos/overlay.hpp"
#include "graph/connectivity.hpp"
#include "graph/hgraph.hpp"
#include "graph/hypercube.hpp"
#include "graph/spectral.hpp"
#include "sampling/hgraph_sampler.hpp"
#include "sampling/hypercube_sampler.hpp"
#include "sampling/schedule.hpp"
#include "sim/bus.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace reconfnet {
namespace {

// --- H-graph structural properties over (n, degree) -------------------------

class HGraphSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

TEST_P(HGraphSweep, AlwaysConnectedRegularAndInvolutive) {
  const auto [n, degree] = GetParam();
  support::Rng rng(n * 131 + static_cast<std::size_t>(degree));
  const auto g = graph::HGraph::random(n, degree, rng);
  EXPECT_EQ(g.degree(), degree);
  // Regularity with multiplicity; succ/pred inverses on every cycle.
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(g.neighbors(v).size(), static_cast<std::size_t>(degree));
    for (int c = 0; c < g.num_cycles(); ++c) {
      EXPECT_EQ(g.pred(c, g.succ(c, v)), v);
    }
  }
  EXPECT_TRUE(graph::is_connected(
      n, [&](std::size_t v, const std::function<void(std::size_t)>& f) {
        for (auto w : g.neighbors(v)) f(w);
      }));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, HGraphSweep,
    ::testing::Combine(::testing::Values(8u, 33u, 100u, 511u, 1024u),
                       ::testing::Values(2, 4, 8, 12)));

// --- Expansion across degrees (Corollary 1) ---------------------------------

class ExpansionSweep : public ::testing::TestWithParam<int> {};

TEST_P(ExpansionSweep, RandomHGraphHasSpectralGap) {
  const int degree = GetParam();
  support::Rng rng(static_cast<std::uint64_t>(degree) * 7 + 1);
  const auto g = graph::HGraph::random(400, degree, rng);
  const double lambda2 = graph::second_eigenvalue_estimate(g, rng, 250);
  // Corollary 1: |lambda_2| <= 2 sqrt(d) (we allow estimation slack).
  EXPECT_LT(lambda2, 2.0 * std::sqrt(static_cast<double>(degree)) + 0.6)
      << "degree " << degree;
  // And a gap exists at all: lambda_2 strictly below d.
  EXPECT_LT(lambda2, static_cast<double>(degree) * 0.95);
}

INSTANTIATE_TEST_SUITE_P(Degrees, ExpansionSweep,
                         ::testing::Values(4, 6, 8, 10, 14));

// --- Schedule laws over (n, eps, c) ------------------------------------------

class ScheduleSweep : public ::testing::TestWithParam<
                          std::tuple<std::size_t, double, double>> {};

TEST_P(ScheduleSweep, SizesDecreaseGeometricallyAndCoverBeta) {
  const auto [n, epsilon, c] = GetParam();
  sampling::SamplingConfig config;
  config.epsilon = epsilon;
  config.c = c;
  config.beta = c;
  const auto est = sampling::SizeEstimate::from_true_size(n);
  for (const auto& schedule :
       {sampling::hgraph_schedule(est, 8, config),
        sampling::hypercube_schedule(
            est, static_cast<int>(std::log2(static_cast<double>(n))),
            config)}) {
    ASSERT_GE(schedule.iterations, 1);
    for (int i = 1; i <= schedule.iterations; ++i) {
      EXPECT_GE(schedule.m[static_cast<std::size_t>(i - 1)],
                schedule.m[static_cast<std::size_t>(i)]);
    }
    EXPECT_GE(static_cast<double>(schedule.samples_out()),
              config.beta * static_cast<double>(est.log_n_estimate()) - 1.0);
    EXPECT_EQ(schedule.target_walk_length,
              std::size_t{1} << schedule.iterations);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScheduleSweep,
    ::testing::Combine(::testing::Values(64u, 1024u, 65536u, 1048576u),
                       ::testing::Values(0.25, 0.5, 1.0),
                       ::testing::Values(0.5, 1.0, 4.0)));

// --- Algorithm 1 invariants over (n, eps) ------------------------------------

class HGraphSamplingSweep : public ::testing::TestWithParam<
                                std::tuple<std::size_t, double>> {};

TEST_P(HGraphSamplingSweep, SuccessRoundsAndWalkLengthInvariant) {
  const auto [n, epsilon] = GetParam();
  support::Rng rng(n * 977 + static_cast<std::size_t>(epsilon * 10));
  const auto g = graph::HGraph::random(n, 8, rng);
  sampling::SamplingConfig config;
  config.epsilon = epsilon;
  config.c = epsilon < 0.75 ? 8.0 : 3.0;  // Lemma 7's c(eps)
  const auto schedule = sampling::hgraph_schedule(
      sampling::SizeEstimate::from_true_size(n), 8, config);
  auto run_rng = rng.split(1);
  const auto result = sampling::run_hgraph_sampling(g, schedule, run_rng);
  ASSERT_TRUE(result.success) << "n=" << n << " eps=" << epsilon;
  EXPECT_EQ(result.rounds, 2 * schedule.iterations);
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(result.samples[v].size(), schedule.samples_out());
    for (auto length : result.walk_lengths[v]) {
      EXPECT_EQ(length, schedule.target_walk_length);  // Lemma 5
    }
    for (auto sample : result.samples[v]) {
      EXPECT_LT(sample, n);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, HGraphSamplingSweep,
    ::testing::Combine(::testing::Values(64u, 256u, 700u),
                       ::testing::Values(0.5, 1.0)));

// --- Algorithm 2 invariants over dimensions (incl. non-powers of two) --------

class HypercubeSamplingSweep : public ::testing::TestWithParam<int> {};

TEST_P(HypercubeSamplingSweep, SucceedsAtEveryDimension) {
  const int d = GetParam();
  const graph::Hypercube cube(d);
  sampling::SamplingConfig config;
  config.c = 3.0;
  const auto schedule = sampling::hypercube_schedule(
      sampling::SizeEstimate::from_true_size(cube.size()), d, config);
  support::Rng rng(static_cast<std::uint64_t>(d) * 31);
  const auto result = sampling::run_hypercube_sampling(cube, schedule, rng);
  ASSERT_TRUE(result.success) << "d=" << d;
  EXPECT_EQ(result.rounds, 2 * schedule.iterations);
  for (const auto& samples : result.samples) {
    EXPECT_EQ(samples.size(), schedule.samples_out());
    for (auto s : samples) EXPECT_LT(s, cube.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Dimensions, HypercubeSamplingSweep,
                         ::testing::Values(3, 4, 5, 6, 7, 8, 9, 10));

// --- Size-estimate slack robustness (Section 4's oracle) ---------------------

class SlackSweep : public ::testing::TestWithParam<int> {};

TEST_P(SlackSweep, SamplingToleratesOverestimates) {
  // The paper's oracle gives an *upper* bound on log log n with additive
  // slack; overestimating n only enlarges multisets and walk lengths, so
  // the primitive must keep succeeding (at higher cost).
  const int slack = GetParam();
  const std::size_t n = 128;
  support::Rng rng(static_cast<std::uint64_t>(slack) * 17 + 3);
  const auto g = graph::HGraph::random(n, 8, rng);
  sampling::SamplingConfig config;
  config.c = 2.0;
  const auto schedule = sampling::hgraph_schedule(
      sampling::SizeEstimate::from_true_size(n, slack), 8, config);
  auto run_rng = rng.split(9);
  const auto result = sampling::run_hgraph_sampling(g, schedule, run_rng);
  EXPECT_TRUE(result.success) << "slack=" << slack;
  EXPECT_GE(result.samples.front().size(),
            schedule.samples_out());
}

INSTANTIATE_TEST_SUITE_P(Slack, SlackSweep, ::testing::Values(0, 1, 2));

// --- Active search over adversarial activity patterns ------------------------

class ActivePatternSweep : public ::testing::TestWithParam<int> {};

TEST_P(ActivePatternSweep, HandlesStructuredPatterns) {
  // Patterns: 0 = single block of actives, 1 = alternating, 2 = two actives
  // diametrically opposed, 3 = actives clustered at one end.
  const int pattern = GetParam();
  const std::size_t n = 64;
  std::vector<std::size_t> succ(n);
  for (std::size_t v = 0; v < n; ++v) succ[v] = (v + 1) % n;
  std::vector<bool> active(n, false);
  switch (pattern) {
    case 0:
      for (std::size_t v = 10; v < 20; ++v) active[v] = true;
      break;
    case 1:
      for (std::size_t v = 0; v < n; v += 2) active[v] = true;
      break;
    case 2:
      active[0] = active[n / 2] = true;
      break;
    case 3:
      for (std::size_t v = n - 5; v < n; ++v) active[v] = true;
      break;
    default:
      FAIL();
  }
  const auto result = churn::find_active_neighbors(succ, active, 32);
  ASSERT_TRUE(result.success);
  // Verify against brute force.
  for (std::size_t v = 0; v < n; ++v) {
    std::size_t w = succ[v];
    while (!active[w]) w = succ[w];
    EXPECT_EQ(result.next_active[v], w) << "pattern " << pattern;
  }
}

INSTANTIATE_TEST_SUITE_P(Patterns, ActivePatternSweep,
                         ::testing::Values(0, 1, 2, 3));

// --- Reconfiguration across sizes and churn mixes -----------------------------

class ReconfigSweep : public ::testing::TestWithParam<
                          std::tuple<std::size_t, std::size_t, std::size_t>> {
};

TEST_P(ReconfigSweep, MemberAlgebraIsExact) {
  const auto [n, leavers, joiners] = GetParam();
  if (leavers >= n) GTEST_SKIP();
  support::Rng rng(n * 3 + leavers * 7 + joiners * 11);
  const auto g = graph::HGraph::random(n, 8, rng);
  churn::ReconfigInput input;
  input.topology = &g;
  input.members.resize(n);
  for (std::size_t v = 0; v < n; ++v) input.members[v] = 1000 + v;
  input.leaving.assign(n, false);
  for (std::size_t i = 0; i < leavers; ++i) input.leaving[i * 2 % n] = true;
  input.joiners.assign(n, {});
  for (std::size_t j = 0; j < joiners; ++j) {
    input.joiners[(j * 3) % n].push_back(5000 + j);
  }
  input.sampling.c = 2.0;
  input.estimate = sampling::SizeEstimate::from_true_size(n + joiners);

  // Reconfiguration succeeds w.h.p.; a dry sampling run is a legitimate
  // low-probability outcome that the overlay handles by retrying, so the
  // property is "succeeds within a few attempts", not "never fails".
  churn::ReconfigResult result;
  for (int attempt = 0;; ++attempt) {
    ASSERT_LT(attempt, 5) << result.failure_reason;
    auto epoch_rng = rng.split(1 + static_cast<std::uint64_t>(attempt));
    result = churn::reconfigure(input, epoch_rng);
    if (result.success) break;
  }

  // Exact set algebra: new = (old \ leavers) + joiners.
  std::unordered_set<sim::NodeId> expected;
  for (std::size_t v = 0; v < n; ++v) {
    if (!input.leaving[v]) expected.insert(input.members[v]);
  }
  for (std::size_t j = 0; j < joiners; ++j) expected.insert(5000 + j);
  std::unordered_set<sim::NodeId> actual(result.new_members.begin(),
                                         result.new_members.end());
  EXPECT_EQ(actual, expected);
  // The rebuilt graph is a valid H-graph of the right size (the HGraph
  // constructor validated the Hamilton cycles) and connected.
  ASSERT_TRUE(result.new_topology.has_value());
  EXPECT_EQ(result.new_topology->size(), expected.size());
  EXPECT_TRUE(graph::is_connected(
      result.new_topology->size(),
      [&](std::size_t v, const std::function<void(std::size_t)>& f) {
        for (auto w : result.new_topology->neighbors(v)) f(w);
      }));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ReconfigSweep,
    ::testing::Combine(::testing::Values(32u, 100u, 256u),
                       ::testing::Values(0u, 5u, 20u),
                       ::testing::Values(0u, 7u, 30u)));

// --- DoS overlay: random blocking sweep (Lemma 17 regime) ---------------------

class BlockingSweep : public ::testing::TestWithParam<double> {};

TEST_P(BlockingSweep, LateRandomBlockingNeverDisconnects) {
  const double fraction = GetParam();
  dos::DosOverlay::Config config;
  config.size = 512;
  config.group_c = 2.0;
  config.seed = static_cast<std::uint64_t>(fraction * 1000) + 5;
  dos::DosOverlay overlay(config);
  support::Rng rng(config.seed + 1);
  adversary::RandomDos adversary(rng);
  dos::Attack attack;
  attack.adversary = &adversary;
  attack.lateness = 10000;
  attack.blocked_fraction = fraction;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto report = overlay.run_epoch(attack);
    EXPECT_EQ(report.disconnected_rounds, 0u)
        << "fraction " << fraction << " epoch " << epoch;
    EXPECT_EQ(report.silenced_group_rounds, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, BlockingSweep,
                         ::testing::Values(0.1, 0.2, 0.3, 0.4, 0.45));

// --- Split/merge: Equation (1) restoration from arbitrary skew ----------------

class SkewSweep : public ::testing::TestWithParam<int> {};

TEST_P(SkewSweep, EnforceRestoresEquationOne) {
  // Build a deliberately skewed assignment over 8 dimension-3 supernodes:
  // skew 0..3 moves an increasing share of 96 nodes into supernode 0.
  const int skew = GetParam();
  const std::size_t n = 96;
  std::vector<std::vector<sim::NodeId>> groups(8);
  support::Rng rng(static_cast<std::uint64_t>(skew) * 19 + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const bool to_zero = rng.bernoulli(0.2 * skew);
    groups[to_zero ? 0 : rng.below(8)].push_back(i);
  }
  for (auto& members : groups) {
    if (members.empty()) {
      auto biggest = std::max_element(
          groups.begin(), groups.end(),
          [](const auto& a, const auto& b) { return a.size() < b.size(); });
      members.push_back(biggest->back());
      biggest->pop_back();
    }
  }
  auto super = combined::SuperGroups::uniform(3, std::move(groups));
  const double c = 2.0;
  support::Rng enforce_rng(7);
  const auto ops = super.enforce(c, enforce_rng);
  EXPECT_EQ(super.node_count(), n);
  EXPECT_LE(super.max_dimension() - super.min_dimension(), 2);
  for (const auto& [key, entry] : super.groups()) {
    const auto& [label, members] = entry;
    // Post-enforce: no group violates the *triggers*.
    EXPECT_LE(static_cast<double>(members.size()),
              2.0 * c * std::max(label.length, 1));
    EXPECT_GE(static_cast<double>(members.size()),
              c * label.length - c);
  }
  if (skew >= 2) {
    EXPECT_GT(ops.splits + ops.merges, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Skews, SkewSweep, ::testing::Values(0, 1, 2, 3));

// --- Grouped overlays: one topology rule (Sections 5-7) -----------------------

/// Checks that groups_connected_excluding agrees with is_connected over the
/// non-blocked nodes and the overlay's edge list, for these blocked sets:
/// none, every node, each whole group, every group adjacent to one group,
/// and random fractions up to 60%. Returns how many of them disconnect.
template <class Groups>
std::size_t expect_rule_matches_node_graph(
    const Groups& groups, const graph::NeighborVisitor& adjacent,
    const std::vector<std::pair<sim::NodeId, sim::NodeId>>& edges,
    support::Rng& rng) {
  std::vector<std::vector<sim::NodeId>> lists;
  std::vector<sim::NodeId> all;
  for (const auto& members : groups) {
    lists.emplace_back(members.begin(), members.end());
    all.insert(all.end(), members.begin(), members.end());
  }
  std::size_t disconnected = 0;
  auto check = [&](const std::unordered_set<sim::NodeId>& ids) {
    const sim::BlockedSet blocked(ids);
    std::vector<sim::NodeId> up;
    for (sim::NodeId node : all) {
      if (!ids.contains(node)) up.push_back(node);
    }
    const bool connected = graph::is_connected(up, edges);
    EXPECT_EQ(graph::groups_connected_excluding(groups, adjacent, blocked),
              connected)
        << ids.size() << " of " << all.size() << " nodes blocked";
    if (!connected) ++disconnected;
  };
  check({});
  check({all.begin(), all.end()});
  for (std::size_t x = 0; x < lists.size(); ++x) {
    check({lists[x].begin(), lists[x].end()});
    std::unordered_set<sim::NodeId> around;
    adjacent(x, [&](std::size_t y) {
      around.insert(lists[y].begin(), lists[y].end());
    });
    check(around);
  }
  for (const double fraction : {0.1, 0.2, 0.3, 0.4, 0.5, 0.6}) {
    for (int draw = 0; draw < 4; ++draw) {
      std::unordered_set<sim::NodeId> ids;
      for (sim::NodeId node : all) {
        if (rng.bernoulli(fraction)) ids.insert(node);
      }
      check(ids);
    }
  }
  return disconnected;
}

/// A complete prefix-free code of mixed dimension, grown by `splits` random
/// leaf splits from the root, with one to four members per supernode.
combined::SuperGroups mixed_supergroups(support::Rng& rng, int splits) {
  std::vector<combined::Label> leaves{combined::Label{}};
  for (int i = 0; i < splits; ++i) {
    const std::size_t at = rng.below(leaves.size());
    const combined::Label leaf = leaves[at];
    leaves[at] = leaf.child(0);
    leaves.push_back(leaf.child(1));
  }
  std::vector<std::pair<combined::Label, std::vector<sim::NodeId>>> groups;
  sim::NodeId next = 0;
  for (const auto& leaf : leaves) {
    std::vector<sim::NodeId> members(1 + rng.below(4));
    for (auto& member : members) member = next++;
    groups.emplace_back(leaf, std::move(members));
  }
  return combined::SuperGroups(std::move(groups));
}

TEST(GroupRule, BinaryGroupTablesMatchNodeGraph) {
  std::size_t disconnected = 0;
  for (int d = 1; d <= 5; ++d) {
    support::Rng rng(100 + static_cast<std::uint64_t>(d));
    const auto table = dos::GroupTable::random(d, std::size_t{3} << d, rng);
    disconnected += expect_rule_matches_node_graph(
        table.groups(), table.adjacency(), table.overlay_edges(), rng);
  }
  EXPECT_GT(disconnected, 0u);
  // At d = 2, groups 1 and 2 are the neighbors of groups 0 and 3.
  const dos::GroupTable square(2, {{1, 2}, {3, 4}, {5, 6}, {7, 8}});
  EXPECT_FALSE(graph::groups_connected_excluding(
      square.groups(), square.adjacency(), sim::BlockedSet({3, 4, 5, 6})));
  EXPECT_TRUE(graph::groups_connected_excluding(
      square.groups(), square.adjacency(), sim::BlockedSet({3, 4, 5})));
}

TEST(GroupRule, KaryOverlaysMatchNodeGraph) {
  std::size_t disconnected = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    apps::KaryGroupedOverlay::Config config;
    config.size = 256;
    config.arity = 4;
    config.group_c = 0.25;  // 64 groups of about 4
    config.seed = seed;
    const apps::KaryGroupedOverlay overlay(config);
    const graph::NeighborVisitor adjacent =
        [&](std::size_t x, const std::function<void(std::size_t)>& visit) {
          for (std::uint64_t y : overlay.cube().neighbors(x)) visit(y);
        };
    support::Rng rng(seed);
    disconnected += expect_rule_matches_node_graph(
        overlay.groups().groups(), adjacent, overlay.overlay_edges(), rng);
  }
  EXPECT_GT(disconnected, 0u);
}

TEST(GroupRule, MixedDimensionSuperGroupsMatchNodeGraph) {
  std::size_t disconnected = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    support::Rng rng(seed);
    auto super = mixed_supergroups(rng, 12);
    EXPECT_LT(super.min_dimension(), super.max_dimension());
    const auto groups =
        super.groups() | std::views::values | std::views::elements<1>;
    disconnected += expect_rule_matches_node_graph(
        groups, super.adjacency(), super.overlay_edges(), rng);
    // A shrinking network may empty a supernode until enforce() merges it:
    // move the first group's members into the second.
    std::vector<std::pair<combined::Label, std::vector<sim::NodeId>>> fresh;
    for (const auto& [key, entry] : super.groups()) fresh.push_back(entry);
    fresh[1].second.insert(fresh[1].second.end(), fresh[0].second.begin(),
                           fresh[0].second.end());
    fresh[0].second.clear();
    super.reassign(fresh, /*allow_empty=*/true);
    EXPECT_EQ(super.min_group_size(), 0u);
    disconnected += expect_rule_matches_node_graph(
        groups, super.adjacency(), super.overlay_edges(), rng);
  }
  EXPECT_GT(disconnected, 0u);
}

/// FNV-1a over an edge list's size and endpoints, in order.
std::uint64_t edge_hash(
    const std::vector<std::pair<sim::NodeId, sim::NodeId>>& edges) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  mix(edges.size());
  for (const auto& [a, b] : edges) {
    mix(a);
    mix(b);
  }
  return hash;
}

TEST(GroupRule, OverlayEdgesKeepTheirPinnedOrder) {
  // Taken from the three per-overlay edge builders this rule replaced: the
  // topology snapshots every t-late adversary reads stay byte-identical.
  support::Rng rng(7);
  EXPECT_EQ(edge_hash(dos::GroupTable::random(5, 512, rng).overlay_edges()),
            0x2ca4a2fa69d1a0a9ULL);
  EXPECT_EQ(edge_hash(mixed_supergroups(rng, 24).overlay_edges()),
            0x88215b499ff4aa8eULL);
  combined::CombinedOverlay::Config combined_config;
  combined_config.initial_size = 512;
  combined_config.seed = 7;
  EXPECT_EQ(edge_hash(combined::CombinedOverlay(combined_config)
                          .supernodes()
                          .overlay_edges()),
            0x72382294b43e8ea2ULL);
  apps::KaryGroupedOverlay::Config kary_config;
  kary_config.size = 1024;
  kary_config.arity = 4;
  kary_config.seed = 7;
  EXPECT_EQ(edge_hash(apps::KaryGroupedOverlay(kary_config).overlay_edges()),
            0xd2e9b71691299c3cULL);
}

TEST(GroupRule, BinaryKaryOverlayIsSection5Overlay) {
  // At k = 2 one digit is one bit: the k-ary DHT overlay holds the groups
  // and edges of Section 5's overlay built from the same size, group_c and
  // seed. Only their epoch salts differ.
  for (const std::size_t n : {64U, 256U, 1024U, 4096U}) {
    for (const std::uint64_t seed : {1U, 7U, 42U}) {
      dos::DosOverlay::Config config;
      config.size = n;
      config.group_c = seed == 7 ? 2.0 : 1.0;
      config.seed = seed;
      apps::KaryGroupedOverlay::Config kary_config;
      kary_config.size = n;
      kary_config.arity = 2;
      kary_config.group_c = config.group_c;
      kary_config.seed = seed;
      const dos::DosOverlay binary(config);
      const apps::KaryGroupedOverlay kary(kary_config);
      EXPECT_EQ(kary.groups().dimension(), binary.groups().dimension());
      EXPECT_EQ(kary.groups().groups(), binary.groups().groups())
          << "n " << n << " seed " << seed;
      EXPECT_EQ(kary.overlay_edges(), binary.groups().overlay_edges())
          << "n " << n << " seed " << seed;
    }
  }
}

// --- Blocking semantics as algebraic properties --------------------------------

class BlockingSemantics
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(BlockingSemantics, DeliveryRuleIsExactlyThePapers) {
  const auto [sender_blocked_send, receiver_blocked_send,
              receiver_blocked_delivery] = GetParam();
  sim::Bus<int> bus;
  sim::BlockedSet at_send, at_delivery;
  if (sender_blocked_send) at_send.insert(1);
  if (receiver_blocked_send) at_send.insert(2);
  if (receiver_blocked_delivery) at_delivery.insert(2);
  bus.send(1, 2, 42, 8);
  bus.step(at_send, at_delivery);
  const bool expected = !sender_blocked_send && !receiver_blocked_send &&
                        !receiver_blocked_delivery;
  EXPECT_EQ(bus.inbox(2).size(), expected ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(AllCases, BlockingSemantics,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

}  // namespace
}  // namespace reconfnet
