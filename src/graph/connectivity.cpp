#include "graph/connectivity.hpp"

#include <numeric>
#include <unordered_map>

namespace reconfnet::graph {
namespace {

/// Union-find over dense indices.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), components_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void unite(std::size_t a, std::size_t b) {
    const std::size_t ra = find(a);
    const std::size_t rb = find(b);
    if (ra != rb) {
      parent_[ra] = rb;
      --components_;
    }
  }

  [[nodiscard]] std::size_t components() const { return components_; }

 private:
  std::vector<std::size_t> parent_;
  std::size_t components_;
};

}  // namespace

std::size_t count_components(std::size_t n, const NeighborVisitor& visit) {
  if (n == 0) return 0;
  UnionFind uf(n);
  for (std::size_t v = 0; v < n; ++v) {
    visit(v, [&](std::size_t w) { uf.unite(v, w); });
  }
  return uf.components();
}

bool is_connected(std::size_t n, const NeighborVisitor& visit) {
  return count_components(n, visit) <= 1;
}

bool is_connected(
    std::span<const sim::NodeId> nodes,
    std::span<const std::pair<sim::NodeId, sim::NodeId>> edges) {
  std::unordered_map<sim::NodeId, std::size_t> index;
  index.reserve(nodes.size());
  for (sim::NodeId node : nodes) index.emplace(node, index.size());
  if (index.empty()) return true;
  UnionFind uf(index.size());
  for (const auto& [a, b] : edges) {
    const auto ia = index.find(a);
    const auto ib = index.find(b);
    if (ia != index.end() && ib != index.end()) {
      uf.unite(ia->second, ib->second);
    }
  }
  return uf.components() <= 1;
}

}  // namespace reconfnet::graph
