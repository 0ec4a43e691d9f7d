// Split/merge maintenance of the variable-dimension supernode set
// (Section 6). Every supernode x must satisfy Equation (1):
//
//     c * d(x) - c < |R(x)| < 2 * c * d(x)
//
// A too-large supernode splits (its representatives divided uniformly at
// random between the two children); a too-small one merges with its sibling,
// forcing the sibling's subtree to collapse first if the sibling itself was
// split. Lemma 18 shows that this keeps all dimensions within a window of
// width 2 and that the process terminates in a constant number of organized
// merge/split sweeps.
#pragma once

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "combined/labels.hpp"
#include "graph/connectivity.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::combined {

struct SplitMergeOps {
  int splits = 0;
  int merges = 0;
  int sweeps = 0;  ///< full passes over the supernode set
};

/// The live supernodes and their representative groups. Maintains the
/// complete prefix-free code invariant.
class SuperGroups {
 public:
  /// Builds from explicit groups; validates the prefix-free complete code
  /// property and that groups are non-empty.
  explicit SuperGroups(std::vector<std::pair<Label, std::vector<sim::NodeId>>>
                           groups);

  /// Seeds `count` supernodes of dimension ceil(log2 count)... more
  /// precisely: the unique complete code in which every label has dimension
  /// `dimension`, i.e. the plain hypercube of 2^dimension supernodes.
  static SuperGroups uniform(int dimension,
                             std::vector<std::vector<sim::NodeId>> groups);

  /// Enforces Equation (1) with constant `c` by splitting and merging until
  /// stable. Throws std::runtime_error if no stable configuration is reached
  /// within a generous sweep budget (cannot happen for valid inputs per
  /// Lemma 18 but is guarded anyway).
  SplitMergeOps enforce(double c, support::Rng& rng);

  [[nodiscard]] std::size_t supernode_count() const { return groups_.size(); }
  [[nodiscard]] std::size_t node_count() const;
  [[nodiscard]] int min_dimension() const;
  [[nodiscard]] int max_dimension() const;

  /// All (label, members) pairs, members sorted by id, labels sorted by key.
  [[nodiscard]] const std::map<std::uint64_t,
                               std::pair<Label, std::vector<sim::NodeId>>>&
  groups() const {
    return groups_;
  }

  /// The unique live supernode whose label prefixes the given bit source;
  /// `bit_at(i)` must return coordinate i+1 of an (arbitrarily long) random
  /// string. Selecting with iid fair bits yields Pr[x] = 2^{-d(x)}.
  [[nodiscard]] Label descend(const std::function<int(int)>& bit_at) const;

  /// Uniform supernode selection with probability 2^{-d(x)}.
  [[nodiscard]] Label sample(support::Rng& rng) const;

  /// Replaces the members of all groups with a fresh assignment; the
  /// assignment maps each node to the supernode chosen by `sample`-style
  /// descent. Empty groups are rejected unless `allow_empty` is set (a
  /// shrinking network legitimately empties supernodes transiently; enforce()
  /// merges them away and must run before the epoch ends).
  void reassign(const std::vector<std::pair<Label, std::vector<sim::NodeId>>>&
                    fresh_groups,
                bool allow_empty = false);

  /// The Section 6 connectivity rule (labels_connected) over the supernodes
  /// indexed in groups() order, each visited ascending. The neighbour lists
  /// are computed once per call, so the visitor is as cheap to walk as an
  /// edge list and goes stale when the labels change.
  [[nodiscard]] graph::NeighborVisitor adjacency() const;

  /// Overlay edges under the Section 6 connectivity rule (group cliques plus
  /// bipartite links between connected supernodes).
  [[nodiscard]] std::vector<std::pair<sim::NodeId, sim::NodeId>>
  overlay_edges() const;

  [[nodiscard]] std::vector<sim::NodeId> all_nodes() const;
  [[nodiscard]] std::size_t min_group_size() const;
  [[nodiscard]] std::size_t max_group_size() const;

 private:
  // key() -> (label, members). Ordered map so iteration order is
  // deterministic.
  std::map<std::uint64_t, std::pair<Label, std::vector<sim::NodeId>>> groups_;

  void validate() const;
  void split(const Label& label, support::Rng& rng);
  /// Merges `label` with its sibling; if the sibling was split, first forces
  /// the sibling's subtree to collapse (recursively merging deepest pairs).
  void merge_with_sibling(Label label, SplitMergeOps& ops);
};

}  // namespace reconfnet::combined
