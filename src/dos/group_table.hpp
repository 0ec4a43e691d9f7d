// Supernode groups (Section 5): the overlay organizes its n nodes into the
// 2^d supernodes of a d-dimensional hypercube, where each supernode x is
// represented by a group R(x) of Theta(log n) nodes. With no node blocked,
// each group forms a clique and neighboring groups form complete bipartite
// graphs (graph::group_edges). Connectivity under blocking is checked on the
// supernodes themselves (graph::groups_connected_excluding), never on that
// edge list.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/connectivity.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::dos {

/// The dimension rule of Sections 5 and 7.2: the largest d >= 1 with
/// arity^d <= n / (group_c * log2 n), capped so that the d * log2(arity)
/// binary coordinates fit a GroupTable. arity is 2 for the binary hypercube
/// and must be a power of two.
int choose_dimension(std::size_t n, int arity, double group_c);

class GroupTable {
 public:
  /// groups[x] lists the members of supernode x; members are sorted by id
  /// internally (the protocol's tie-breaking order). Every node must appear
  /// in exactly one group and every group must be non-empty.
  GroupTable(int dimension, std::vector<std::vector<sim::NodeId>> groups);

  /// Assigns each node to a supernode independently and uniformly at random
  /// (the paper's initial configuration). Rare empty groups are rebalanced
  /// from the largest group, since a supernode cannot exist without
  /// representatives. Requires at least one node per supernode.
  static GroupTable random(int dimension, std::span<const sim::NodeId> nodes,
                           support::Rng& rng);
  /// The same over the ids 0..n-1.
  static GroupTable random(int dimension, std::size_t n, support::Rng& rng);

  [[nodiscard]] int dimension() const { return dimension_; }
  [[nodiscard]] std::uint64_t supernodes() const {
    return std::uint64_t{1} << dimension_;
  }
  [[nodiscard]] std::size_t size() const { return node_to_supernode_.size(); }

  /// Members of R(x), ascending by id.
  [[nodiscard]] const std::vector<sim::NodeId>& group(std::uint64_t x) const {
    return groups_[x];
  }
  /// Every R(x), indexed by supernode.
  [[nodiscard]] const std::vector<std::vector<sim::NodeId>>& groups() const {
    return groups_;
  }
  [[nodiscard]] std::uint64_t supernode_of(sim::NodeId node) const {
    return node_to_supernode_.at(node);
  }
  /// True iff `node` is a member of some group.
  [[nodiscard]] bool contains(sim::NodeId node) const {
    return node_to_supernode_.contains(node);
  }

  [[nodiscard]] std::size_t min_group_size() const;
  [[nodiscard]] std::size_t max_group_size() const;

  [[nodiscard]] std::vector<sim::NodeId> all_nodes() const;

  /// Hypercube adjacency of the supernodes: x's neighbors are x with one
  /// bit flipped, visited from the lowest bit up.
  [[nodiscard]] graph::NeighborVisitor adjacency() const;

  /// The overlay edge set: cliques inside groups plus complete bipartite
  /// connections between groups of adjacent supernodes. This is what the
  /// DoS adversary observes.
  [[nodiscard]] std::vector<std::pair<sim::NodeId, sim::NodeId>>
  overlay_edges() const {
    return graph::group_edges(groups_, adjacency());
  }

 private:
  int dimension_;
  std::vector<std::vector<sim::NodeId>> groups_;
  std::unordered_map<sim::NodeId, std::uint64_t> node_to_supernode_;
};

}  // namespace reconfnet::dos
