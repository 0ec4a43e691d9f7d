#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "graph/connectivity.hpp"
#include "graph/hgraph.hpp"
#include "graph/hypercube.hpp"
#include "graph/kary_hypercube.hpp"
#include "graph/spectral.hpp"
#include "support/rng.hpp"

namespace reconfnet::graph {
namespace {

TEST(HamiltonCycle, IsSingleCycle) {
  support::Rng rng(1);
  const auto succ = random_hamilton_cycle(50, rng);
  std::size_t v = 0;
  std::set<std::size_t> visited;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(visited.insert(v).second);
    v = succ[v];
  }
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(visited.size(), 50u);
}

TEST(HGraph, RandomHasRequestedShape) {
  support::Rng rng(2);
  const auto g = HGraph::random(100, 8, rng);
  EXPECT_EQ(g.size(), 100u);
  EXPECT_EQ(g.degree(), 8);
  EXPECT_EQ(g.num_cycles(), 4);
  for (std::size_t v = 0; v < g.size(); ++v) {
    EXPECT_EQ(g.neighbors(v).size(), 8u);
  }
}

TEST(HGraph, SuccPredAreInverse) {
  support::Rng rng(3);
  const auto g = HGraph::random(64, 8, rng);
  for (int c = 0; c < g.num_cycles(); ++c) {
    for (std::size_t v = 0; v < g.size(); ++v) {
      EXPECT_EQ(g.pred(c, g.succ(c, v)), v);
      EXPECT_EQ(g.succ(c, g.pred(c, v)), v);
    }
  }
}

TEST(HGraph, PortsEnumerateSuccAndPred) {
  support::Rng rng(4);
  const auto g = HGraph::random(32, 4, rng);
  for (std::size_t v = 0; v < g.size(); ++v) {
    EXPECT_EQ(g.neighbor(v, 0), g.succ(0, v));
    EXPECT_EQ(g.neighbor(v, 1), g.pred(0, v));
    EXPECT_EQ(g.neighbor(v, 2), g.succ(1, v));
    EXPECT_EQ(g.neighbor(v, 3), g.pred(1, v));
  }
}

TEST(HGraph, IsConnected) {
  support::Rng rng(5);
  const auto g = HGraph::random(200, 8, rng);
  EXPECT_TRUE(is_connected(
      g.size(), [&](std::size_t v, const std::function<void(std::size_t)>& f) {
        for (auto w : g.neighbors(v)) f(w);
      }));
}

TEST(HGraph, RejectsInvalidInput) {
  EXPECT_THROW(HGraph(2, {{1, 0}}), std::invalid_argument);
  support::Rng rng(6);
  EXPECT_THROW(HGraph::random(10, 3, rng), std::invalid_argument);  // odd
  EXPECT_THROW(HGraph::random(10, 0, rng), std::invalid_argument);
  // Two 2-cycles instead of one 4-cycle.
  EXPECT_THROW(HGraph(4, {{1, 0, 3, 2}}), std::invalid_argument);
  // Wrong size table.
  EXPECT_THROW(HGraph(4, {{1, 2, 0}}), std::invalid_argument);
}

TEST(HGraph, DeterministicGivenSeed) {
  support::Rng rng1(7), rng2(7);
  const auto a = HGraph::random(40, 4, rng1);
  const auto b = HGraph::random(40, 4, rng2);
  for (std::size_t v = 0; v < 40; ++v) {
    EXPECT_EQ(a.succ(0, v), b.succ(0, v));
    EXPECT_EQ(a.succ(1, v), b.succ(1, v));
  }
}

TEST(Spectral, RandomHGraphIsExpander) {
  // Corollary 1: |lambda_2| <= 2 sqrt(d) w.h.p. for random H-graphs.
  support::Rng rng(8);
  const int d = 8;
  const auto g = HGraph::random(512, d, rng);
  const double lambda2 = second_eigenvalue_estimate(g, rng, 300);
  EXPECT_LT(lambda2, 2.0 * std::sqrt(static_cast<double>(d)) + 0.5);
  EXPECT_GT(lambda2, 0.0);
}

TEST(Spectral, SingleCycleIsNotAnExpander) {
  // A single Hamilton cycle (d = 2) has lambda_2 = 2 cos(2 pi / n) -> 2,
  // i.e. nearly equal to the degree: no spectral gap.
  support::Rng rng(9);
  const auto g = HGraph::random(256, 2, rng);
  const double lambda2 = second_eigenvalue_estimate(g, rng, 500);
  EXPECT_GT(lambda2, 1.9);
}

TEST(Hypercube, FlipMatchesPaperDefinition) {
  Hypercube h(4);
  EXPECT_EQ(h.size(), 16u);
  EXPECT_EQ(h.flip(0b0000, 1), 0b0001u);
  EXPECT_EQ(h.flip(0b0000, 4), 0b1000u);
  EXPECT_EQ(h.flip(0b1010, 2), 0b1000u);
  EXPECT_THROW((void)h.flip(0, 0), std::invalid_argument);
  EXPECT_THROW((void)h.flip(0, 5), std::invalid_argument);
}

TEST(Hypercube, NeighborsDifferInOneCoordinate) {
  Hypercube h(5);
  const auto nbrs = h.neighbors(0b10110);
  EXPECT_EQ(nbrs.size(), 5u);
  for (auto w : nbrs) {
    EXPECT_EQ(Hypercube::distance(0b10110, w), 1);
  }
  // All distinct.
  std::set<std::uint64_t> unique(nbrs.begin(), nbrs.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Hypercube, DistanceIsHamming) {
  EXPECT_EQ(Hypercube::distance(0b0000, 0b1111), 4);
  EXPECT_EQ(Hypercube::distance(0b1010, 0b1010), 0);
}

TEST(Hypercube, IsConnected) {
  Hypercube h(6);
  EXPECT_TRUE(is_connected(
      static_cast<std::size_t>(h.size()),
      [&](std::size_t v, const std::function<void(std::size_t)>& f) {
        for (auto w : h.neighbors(v)) f(static_cast<std::size_t>(w));
      }));
}

TEST(KaryHypercube, ShapeMatchesDefinition1) {
  KaryHypercube g(4, 3);
  EXPECT_EQ(g.size(), 64u);
  EXPECT_EQ(g.degree(), (4 - 1) * 3);
  for (std::uint64_t v = 0; v < g.size(); ++v) {
    const auto nbrs = g.neighbors(v);
    EXPECT_EQ(nbrs.size(), static_cast<std::size_t>(g.degree()));
    for (auto w : nbrs) EXPECT_EQ(g.distance(v, w), 1);
  }
}

TEST(KaryHypercube, EncodeDecodeRoundTrip) {
  KaryHypercube g(3, 4);
  for (std::uint64_t v = 0; v < g.size(); ++v) {
    EXPECT_EQ(g.encode(g.coordinates(v)), v);
  }
}

TEST(KaryHypercube, WithDigitReplacesCoordinate) {
  KaryHypercube g(5, 3);
  const std::uint64_t v = g.encode({1, 2, 3});
  EXPECT_EQ(g.with_digit(v, 1, 4), g.encode({1, 4, 3}));
  EXPECT_EQ(g.digit(g.with_digit(v, 0, 0), 0), 0);
  EXPECT_THROW((void)g.with_digit(v, 0, 5), std::invalid_argument);
}

TEST(KaryHypercube, DiameterIsDimension) {
  KaryHypercube g(3, 3);
  EXPECT_EQ(g.distance(g.encode({0, 0, 0}), g.encode({2, 2, 2})), 3);
}

TEST(KaryHypercube, RejectsInvalidParameters) {
  EXPECT_THROW(KaryHypercube(1, 3), std::invalid_argument);
  EXPECT_THROW(KaryHypercube(2, 0), std::invalid_argument);
  EXPECT_THROW(KaryHypercube(2, 63), std::invalid_argument);
}

TEST(Connectivity, DetectsDisconnectedDenseGraph) {
  // Two components: {0,1}, {2,3}.
  auto visit = [](std::size_t v, const std::function<void(std::size_t)>& f) {
    if (v == 0) f(1);
    if (v == 2) f(3);
  };
  EXPECT_FALSE(is_connected(4, visit));
  EXPECT_EQ(count_components(4, visit), 2u);
}

TEST(Connectivity, EmptyGraphIsConnected) {
  EXPECT_TRUE(is_connected(
      0, [](std::size_t, const std::function<void(std::size_t)>&) {}));
}

TEST(Connectivity, IdGraphBasics) {
  const std::vector<sim::NodeId> nodes{10, 20, 30};
  const std::vector<std::pair<sim::NodeId, sim::NodeId>> edges{{10, 20},
                                                               {20, 30}};
  EXPECT_TRUE(is_connected(nodes, edges));
  const std::vector<std::pair<sim::NodeId, sim::NodeId>> partial{{10, 20}};
  EXPECT_FALSE(is_connected(nodes, partial));
}

TEST(Connectivity, IgnoresEdgesToUnknownNodes) {
  const std::vector<sim::NodeId> nodes{1, 2};
  const std::vector<std::pair<sim::NodeId, sim::NodeId>> edges{{1, 99},
                                                               {99, 2}};
  EXPECT_FALSE(is_connected(nodes, edges));  // 99 is not a member
}

/// Groups 0-1-2 on a path.
void path_of_three(std::size_t x, const std::function<void(std::size_t)>& f) {
  if (x > 0) f(x - 1);
  if (x < 2) f(x + 1);
}

TEST(Connectivity, ExcludingBlockedNodes) {
  // R(0) = {1}, R(1) = {2, 4}, R(2) = {3} on the path 0-1-2.
  const std::vector<std::vector<sim::NodeId>> groups{{1}, {2, 4}, {3}};
  EXPECT_TRUE(
      groups_connected_excluding(groups, path_of_three, sim::BlockedSet()));
  // One available member keeps the middle group a bridge.
  EXPECT_TRUE(
      groups_connected_excluding(groups, path_of_three, sim::BlockedSet({2})));
  // Silencing the middle group cuts the path.
  EXPECT_FALSE(groups_connected_excluding(groups, path_of_three,
                                          sim::BlockedSet({2, 4})));
  // Silencing an end group keeps the rest connected.
  EXPECT_TRUE(
      groups_connected_excluding(groups, path_of_three, sim::BlockedSet({1})));
}

TEST(Connectivity, GroupEdgesAreCliquesThenLinksToLaterGroups) {
  const std::vector<std::vector<sim::NodeId>> groups{{1, 2}, {3}, {4}};
  const std::vector<std::pair<sim::NodeId, sim::NodeId>> expected{
      {1, 2}, {1, 3}, {2, 3}, {3, 4}};
  EXPECT_EQ(group_edges(groups, path_of_three), expected);
}

TEST(Connectivity, AllNodesExcludedCountsAsConnected) {
  const std::vector<std::vector<sim::NodeId>> groups{{1}, {2}, {3}};
  EXPECT_TRUE(groups_connected_excluding(groups, path_of_three,
                                         sim::BlockedSet({1, 2, 3})));
  // So does a single group that keeps a member.
  EXPECT_TRUE(groups_connected_excluding(groups, path_of_three,
                                         sim::BlockedSet({1, 2})));
}

}  // namespace
}  // namespace reconfnet::graph
