// Connectivity checks. The paper's central correctness property is that the
// overlay (restricted to non-blocked nodes, under DoS attack) stays connected;
// these helpers verify it on dense-index graphs, on NodeId edge lists, and on
// the grouped overlays of Sections 5-7, which also get their one edge builder
// here.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "sim/blocked.hpp"
#include "sim/types.hpp"

namespace reconfnet::graph {

/// Callback enumerating the neighbors of a dense vertex index.
using NeighborVisitor =
    std::function<void(std::size_t v, const std::function<void(std::size_t)>&)>;

/// True iff the graph over {0,...,n-1} described by `visit` is connected.
/// n == 0 counts as connected.
bool is_connected(std::size_t n, const NeighborVisitor& visit);

/// Number of connected components of the dense-index graph.
std::size_t count_components(std::size_t n, const NeighborVisitor& visit);

/// Connectivity of a NodeId graph given as node and undirected edge lists.
/// Edges with endpoints not present in `nodes` are ignored. An empty node set
/// counts as connected.
bool is_connected(std::span<const sim::NodeId> nodes,
                  std::span<const std::pair<sim::NodeId, sim::NodeId>> edges);

/// The grouped overlays of Sections 5-7 (DoS, combined and k-ary DHT) share
/// one topology rule: every group R(x) is a clique, and the groups of
/// adjacent supernodes are joined by complete bipartite links. A grouped
/// overlay is given by `groups`, whose x-th entry lists R(x) ascending, and
/// by `adjacent`, which visits the groups adjacent to group x.
///
/// The overlay's edge list: for x ascending, R(x)'s clique, then its links
/// to each adjacent y > x in `adjacent`'s visiting order. `groups` must be
/// indexable by group.
template <class Groups>
std::vector<std::pair<sim::NodeId, sim::NodeId>> group_edges(
    const Groups& groups, const NeighborVisitor& adjacent) {
  std::vector<std::pair<sim::NodeId, sim::NodeId>> edges;
  for (std::size_t x = 0; x < std::size(groups); ++x) {
    const auto& members = groups[x];
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        edges.emplace_back(members[i], members[j]);
      }
    }
    adjacent(x, [&](std::size_t y) {
      if (y < x) return;
      for (sim::NodeId a : members) {
        for (sim::NodeId b : groups[y]) edges.emplace_back(a, b);
      }
    });
  }
  return edges;
}

/// True iff the non-blocked nodes of that overlay are connected: the paper's
/// "connected under a DoS-attack". The non-blocked members of a group form a
/// clique joined to those of every adjacent group, so this holds exactly
/// when the groups that keep a non-blocked member are connected, which is
/// checked on the groups instead of the node pairs. None or one such group
/// counts as connected. `groups` may be any sized range in group order.
template <class Groups>
bool groups_connected_excluding(const Groups& groups,
                                const NeighborVisitor& adjacent,
                                const sim::BlockedSet& blocked) {
  constexpr std::size_t kSilent = static_cast<std::size_t>(-1);
  // The groups that keep a non-blocked member, and each group's position
  // among them (kSilent for the others).
  std::vector<std::size_t> live;
  std::vector<std::size_t> position(std::ranges::size(groups), kSilent);
  live.reserve(position.size());
  std::size_t x = 0;
  for (const auto& members : groups) {
    if (std::ranges::any_of(members, [&](sim::NodeId node) {
          return !blocked.contains(node);
        })) {
      position[x] = live.size();
      live.push_back(x);
    }
    ++x;
  }
  return is_connected(
      live.size(),
      [&](std::size_t v, const std::function<void(std::size_t)>& visit) {
        adjacent(live[v], [&](std::size_t y) {
          if (position[y] != kSilent) visit(position[y]);
        });
      });
}

}  // namespace reconfnet::graph
