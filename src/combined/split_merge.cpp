#include "combined/split_merge.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

namespace reconfnet::combined {

SuperGroups::SuperGroups(
    std::vector<std::pair<Label, std::vector<sim::NodeId>>> groups) {
  for (auto& [label, members] : groups) {
    std::sort(members.begin(), members.end());
    if (!groups_.emplace(label.key(),
                         std::make_pair(label, std::move(members)))
             .second) {
      throw std::invalid_argument("SuperGroups: duplicate label");
    }
  }
  validate();
}

SuperGroups SuperGroups::uniform(
    int dimension, std::vector<std::vector<sim::NodeId>> groups) {
  if (dimension < 0 || dimension > 30) {
    throw std::invalid_argument("SuperGroups: dimension out of range");
  }
  const std::uint64_t count = std::uint64_t{1} << dimension;
  if (groups.size() != count) {
    throw std::invalid_argument("SuperGroups: need 2^dimension groups");
  }
  std::vector<std::pair<Label, std::vector<sim::NodeId>>> labeled;
  labeled.reserve(count);
  for (std::uint64_t bits = 0; bits < count; ++bits) {
    labeled.emplace_back(Label{bits, dimension}, std::move(groups[bits]));
  }
  return SuperGroups(std::move(labeled));
}

void SuperGroups::validate() const {
  if (groups_.empty()) {
    throw std::invalid_argument("SuperGroups: no supernodes");
  }
  // Prefix-free and complete: the 2^{-length} measures must sum to exactly 1
  // and no label may prefix another.
  // Sum of 2^{62-length} over all leaves must equal 2^62 exactly; the sum
  // fits in 64 bits for any valid code and overflow on invalid input still
  // fails the equality check with overwhelming probability.
  std::uint64_t measure = 0;
  for (const auto& [key, entry] : groups_) {
    const auto& [label, members] = entry;
    if (label.length > 62) {
      throw std::invalid_argument("SuperGroups: label too long");
    }
    if (members.empty()) {
      throw std::invalid_argument("SuperGroups: empty group");
    }
    measure += std::uint64_t{1} << (62 - label.length);
  }
  if (measure != (std::uint64_t{1} << 62)) {
    throw std::invalid_argument(
        "SuperGroups: labels are not a complete prefix-free code");
  }
  for (const auto& [ka, entry_a] : groups_) {
    for (const auto& [kb, entry_b] : groups_) {
      if (ka != kb && entry_a.first.is_prefix_of(entry_b.first)) {
        throw std::invalid_argument("SuperGroups: label prefixes another");
      }
    }
  }
}

std::size_t SuperGroups::node_count() const {
  std::size_t total = 0;
  for (const auto& [key, entry] : groups_) total += entry.second.size();
  return total;
}

int SuperGroups::min_dimension() const {
  int best = 63;
  for (const auto& [key, entry] : groups_) {
    best = std::min(best, entry.first.length);
  }
  return best;
}

int SuperGroups::max_dimension() const {
  int best = 0;
  for (const auto& [key, entry] : groups_) {
    best = std::max(best, entry.first.length);
  }
  return best;
}

void SuperGroups::split(const Label& label, support::Rng& rng) {
  auto node = groups_.extract(label.key());
  auto members = std::move(node.mapped().second);
  std::vector<sim::NodeId> low, high;
  for (sim::NodeId member : members) {
    (rng.coin() ? high : low).push_back(member);
  }
  // A supernode must keep at least one representative; rebalance the
  // (exponentially unlikely) empty side.
  if (low.empty() && !high.empty()) {
    low.push_back(high.back());
    high.pop_back();
  } else if (high.empty() && !low.empty()) {
    high.push_back(low.back());
    low.pop_back();
  }
  groups_.emplace(label.child(0).key(),
                  std::make_pair(label.child(0), std::move(low)));
  groups_.emplace(label.child(1).key(),
                  std::make_pair(label.child(1), std::move(high)));
}

void SuperGroups::merge_with_sibling(Label label, SplitMergeOps& ops) {
  if (label.length == 0) return;  // the root cannot merge
  const Label sibling = label.sibling();
  // Force the sibling's subtree to collapse into a single leaf first: merge
  // the deepest leaf under the sibling with *its* sibling (which, being at
  // maximal depth, is also a leaf) until `sibling` itself is a leaf.
  while (!groups_.contains(sibling.key())) {
    const Label* deepest = nullptr;
    for (const auto& [key, entry] : groups_) {
      if (sibling.is_prefix_of(entry.first) &&
          (deepest == nullptr || entry.first.length > deepest->length)) {
        deepest = &entry.first;
      }
    }
    if (deepest == nullptr) {
      throw std::runtime_error("SuperGroups: sibling subtree missing");
    }
    merge_with_sibling(*deepest, ops);
  }
  auto mine = groups_.extract(label.key());
  auto theirs = groups_.extract(sibling.key());
  auto members = std::move(mine.mapped().second);
  auto& other = theirs.mapped().second;
  members.insert(members.end(), other.begin(), other.end());
  std::sort(members.begin(), members.end());
  const Label parent = label.parent();
  groups_.emplace(parent.key(), std::make_pair(parent, std::move(members)));
  ++ops.merges;
}

SplitMergeOps SuperGroups::enforce(double c, support::Rng& rng) {
  if (c <= 0.0) throw std::invalid_argument("SuperGroups: c must be > 0");
  SplitMergeOps ops;
  constexpr int kMaxSweeps = 64;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    ++ops.sweeps;
    bool changed = false;
    // Splits: |R(x)| > 2 c d(x).
    std::vector<Label> to_split;
    for (const auto& [key, entry] : groups_) {
      const auto& [label, members] = entry;
      if (static_cast<double>(members.size()) >
          2.0 * c * static_cast<double>(std::max(label.length, 1))) {
        to_split.push_back(label);
      }
    }
    for (const Label& label : to_split) {
      split(label, rng);
      ++ops.splits;
      changed = true;
    }
    // Merges: |R(x)| < c d(x) - c; an empty group always merges (a
    // supernode without representatives cannot exist).
    std::vector<Label> to_merge;
    for (const auto& [key, entry] : groups_) {
      const auto& [label, members] = entry;
      const bool undersized =
          static_cast<double>(members.size()) <
          c * static_cast<double>(label.length) - c;
      if ((undersized || members.empty()) && label.length > 0) {
        to_merge.push_back(label);
      }
    }
    for (const Label& label : to_merge) {
      // The label may already have been consumed by an earlier merge in this
      // sweep.
      if (!groups_.contains(label.key())) continue;
      merge_with_sibling(label, ops);
      changed = true;
    }
    if (!changed) return ops;
  }
  throw std::runtime_error("SuperGroups: split/merge did not stabilize");
}

Label SuperGroups::descend(const std::function<int(int)>& bit_at) const {
  Label current{0, 0};
  for (int depth = 0; depth <= 62; ++depth) {
    if (groups_.contains(current.key())) return current;
    current = current.child(bit_at(current.length));
  }
  throw std::runtime_error("SuperGroups: descent did not reach a leaf");
}

Label SuperGroups::sample(support::Rng& rng) const {
  return descend([&rng](int) { return rng.coin() ? 1 : 0; });
}

void SuperGroups::reassign(
    const std::vector<std::pair<Label, std::vector<sim::NodeId>>>&
        fresh_groups,
    bool allow_empty) {
  if (fresh_groups.size() != groups_.size()) {
    throw std::runtime_error("SuperGroups: reassignment changes label set");
  }
  std::map<std::uint64_t, std::pair<Label, std::vector<sim::NodeId>>> fresh;
  for (const auto& [label, members] : fresh_groups) {
    if (!groups_.contains(label.key())) {
      throw std::runtime_error("SuperGroups: unknown label in reassignment");
    }
    if (members.empty() && !allow_empty) {
      throw std::runtime_error("SuperGroups: reassignment empties a group");
    }
    auto sorted = members;
    std::sort(sorted.begin(), sorted.end());
    fresh.emplace(label.key(), std::make_pair(label, std::move(sorted)));
  }
  if (fresh.size() != groups_.size()) {
    throw std::runtime_error("SuperGroups: reassignment misses labels");
  }
  groups_ = std::move(fresh);
}

graph::NeighborVisitor SuperGroups::adjacency() const {
  std::vector<Label> labels;
  labels.reserve(groups_.size());
  for (const auto& [key, entry] : groups_) labels.push_back(entry.first);
  std::vector<std::vector<std::size_t>> neighbors(labels.size());
  for (std::size_t x = 0; x < labels.size(); ++x) {
    for (std::size_t y = 0; y < labels.size(); ++y) {
      if (labels_connected(labels[x], labels[y])) neighbors[x].push_back(y);
    }
  }
  return [neighbors = std::move(neighbors)](
             std::size_t x, const std::function<void(std::size_t)>& visit) {
    for (const std::size_t y : neighbors[x]) visit(y);
  };
}

std::vector<std::pair<sim::NodeId, sim::NodeId>> SuperGroups::overlay_edges()
    const {
  std::vector<std::span<const sim::NodeId>> members;
  members.reserve(groups_.size());
  for (const auto& [key, entry] : groups_) members.emplace_back(entry.second);
  return graph::group_edges(members, adjacency());
}

std::vector<sim::NodeId> SuperGroups::all_nodes() const {
  std::vector<sim::NodeId> nodes;
  for (const auto& [key, entry] : groups_) {
    nodes.insert(nodes.end(), entry.second.begin(), entry.second.end());
  }
  return nodes;
}

std::size_t SuperGroups::min_group_size() const {
  std::size_t best = groups_.begin()->second.second.size();
  for (const auto& [key, entry] : groups_) {
    best = std::min(best, entry.second.size());
  }
  return best;
}

std::size_t SuperGroups::max_group_size() const {
  std::size_t best = 0;
  for (const auto& [key, entry] : groups_) {
    best = std::max(best, entry.second.size());
  }
  return best;
}

}  // namespace reconfnet::combined
