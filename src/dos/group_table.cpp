#include "dos/group_table.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace reconfnet::dos {
namespace {

/// Largest dimension a GroupTable accepts.
constexpr int kMaxDimension = 30;

}  // namespace

int choose_dimension(std::size_t n, int arity, double group_c) {
  if (arity < 2 || !std::has_single_bit(static_cast<unsigned>(arity))) {
    throw std::invalid_argument(
        "choose_dimension: arity must be a power of two");
  }
  const int bits_per_digit = std::countr_zero(static_cast<unsigned>(arity));
  const double budget = static_cast<double>(n) /
                        (group_c * std::log2(static_cast<double>(n)));
  int d = 1;
  double next = static_cast<double>(arity) * arity;
  while (next <= budget && (d + 1) * bits_per_digit <= kMaxDimension) {
    ++d;
    next *= arity;
  }
  return d;
}

GroupTable::GroupTable(int dimension,
                       std::vector<std::vector<sim::NodeId>> groups)
    : dimension_(dimension), groups_(std::move(groups)) {
  if (dimension < 1 || dimension > kMaxDimension) {
    throw std::invalid_argument("GroupTable: dimension out of range");
  }
  if (groups_.size() != supernodes()) {
    throw std::invalid_argument("GroupTable: need exactly 2^d groups");
  }
  for (std::uint64_t x = 0; x < supernodes(); ++x) {
    auto& members = groups_[x];
    if (members.empty()) {
      throw std::invalid_argument("GroupTable: empty group");
    }
    std::sort(members.begin(), members.end());
    for (sim::NodeId node : members) {
      if (!node_to_supernode_.emplace(node, x).second) {
        throw std::invalid_argument("GroupTable: node in two groups");
      }
    }
  }
}

GroupTable GroupTable::random(int dimension,
                              std::span<const sim::NodeId> nodes,
                              support::Rng& rng) {
  const std::uint64_t count = std::uint64_t{1} << dimension;
  if (nodes.size() < count) {
    throw std::invalid_argument("GroupTable: fewer nodes than supernodes");
  }
  std::vector<std::vector<sim::NodeId>> groups(count);
  for (sim::NodeId node : nodes) {
    groups[rng.below(count)].push_back(node);
  }
  // A supernode cannot exist without representatives; when the uniform
  // assignment leaves a group empty (likely only for very small groups),
  // rebalance from the largest group.
  for (auto& members : groups) {
    if (!members.empty()) continue;
    auto largest = std::max_element(
        groups.begin(), groups.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    members.push_back(largest->back());
    largest->pop_back();
  }
  return GroupTable(dimension, std::move(groups));
}

GroupTable GroupTable::random(int dimension, std::size_t n,
                              support::Rng& rng) {
  std::vector<sim::NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), sim::NodeId{0});
  return random(dimension, ids, rng);
}

std::size_t GroupTable::min_group_size() const {
  std::size_t best = groups_.front().size();
  for (const auto& members : groups_) best = std::min(best, members.size());
  return best;
}

std::size_t GroupTable::max_group_size() const {
  std::size_t best = 0;
  for (const auto& members : groups_) best = std::max(best, members.size());
  return best;
}

std::vector<sim::NodeId> GroupTable::all_nodes() const {
  std::vector<sim::NodeId> nodes;
  nodes.reserve(size());
  for (const auto& members : groups_) {
    nodes.insert(nodes.end(), members.begin(), members.end());
  }
  return nodes;
}

graph::NeighborVisitor GroupTable::adjacency() const {
  return [d = dimension_](std::size_t x,
                          const std::function<void(std::size_t)>& visit) {
    for (int bit = 0; bit < d; ++bit) visit(x ^ (std::size_t{1} << bit));
  };
}

}  // namespace reconfnet::dos
