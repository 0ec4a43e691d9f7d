// The k-ary grouped hypercube overlay for the robust DHT (Section 7.2). The
// servers represent the vertices of a d-dimensional k-ary hypercube
// (Definition 1) through groups, reconfigured exactly like the binary overlay
// of Section 5. For k a power of two, a k-ary vertex is the concatenation of
// its digits' bits, so the rapid sampling primitive of Algorithm 2 runs over
// the d * log2(k) binary coordinates unchanged — only the adjacency relation
// (one *digit* may differ, coarser than one bit) distinguishes the k-ary
// overlay.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dos/attack.hpp"
#include "dos/group_table.hpp"
#include "graph/connectivity.hpp"
#include "graph/kary_hypercube.hpp"
#include "sampling/schedule.hpp"
#include "sim/blocked.hpp"
#include "sim/bus.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::apps {

class KaryGroupedOverlay {
 public:
  struct Config {
    std::size_t size = 1024;
    int arity = 4;  ///< k; must be a power of two >= 2
    double group_c = 1.0;
    sampling::SamplingConfig sampling{};
    int size_estimate_slack = 0;
    std::uint64_t seed = 1;
    /// Materialize edge lists in topology snapshots. The full edge list is
    /// Theta((n/d * log n)^2 * d) pairs — gigabytes at n = 10^5 — and only
    /// stale-view adversaries read it, so large-scale workload runs without
    /// an epoch adversary turn it off.
    bool snapshot_edges = true;
  };

  struct EpochReport {
    bool success = false;
    std::string failure_reason;
    bool reorganized = false;
    sim::Round rounds = 0;
    std::size_t silenced_group_rounds = 0;
    std::size_t disconnected_rounds = 0;
    double min_available_fraction = 1.0;
    std::size_t min_group_size = 0;
    std::size_t max_group_size = 0;
    /// Sampler requests/responses lost to the fault hook (DESIGN.md §10).
    std::size_t fault_dropped_messages = 0;
  };

  explicit KaryGroupedOverlay(const Config& config);

  /// Attaches (or detaches, with nullptr) a fault-injection hook to the
  /// epoch's sampler exchange: every request and response leg is offered to
  /// the hook, and the hook's clock ticks once per epoch round. The hook
  /// must outlive the overlay's epochs.
  void set_fault_hook(sim::DeliveryHook* hook) { fault_hook_ = hook; }

  /// One reconfiguration epoch (group-level Algorithm 2 simulation plus the
  /// four-round reorganization), under the given attack.
  EpochReport run_epoch(const dos::Attack& attack);

  [[nodiscard]] const graph::KaryHypercube& cube() const { return cube_; }
  [[nodiscard]] std::size_t size() const { return config_.size; }
  [[nodiscard]] sim::Round round() const { return rounds_.round(); }

  /// The groups, indexed by k-ary vertex; vertex x is binary supernode x of
  /// the d * log2(k)-dimensional table.
  [[nodiscard]] const dos::GroupTable& groups() const { return table_; }
  /// Cliques inside groups plus complete bipartite connections between
  /// groups of adjacent k-ary vertices.
  [[nodiscard]] std::vector<std::pair<sim::NodeId, sim::NodeId>>
  overlay_edges() const {
    return graph::group_edges(table_.groups(), adjacency());
  }

  /// Deterministic key-to-supernode placement for the DHT layer.
  [[nodiscard]] std::uint64_t supernode_of_key(std::uint64_t key_hash) const {
    return key_hash % cube_.size();
  }

  /// True iff at least one member of R(x) is available in pipeline round
  /// `round` of `blocked_per_round` (the paper's rule: non-blocked in the
  /// round and its predecessor).
  [[nodiscard]] bool group_available(
      std::uint64_t x, std::size_t round,
      std::span<const sim::BlockedSet> blocked_per_round) const;

 private:
  Config config_;
  support::Rng rng_;
  graph::KaryHypercube cube_;
  dos::GroupTable table_;
  dos::AttackRounds rounds_;
  sim::DeliveryHook* fault_hook_ = nullptr;
  std::vector<sim::Round> fate_;  ///< fault-hook scratch

  /// k-ary adjacency of the groups: x's cube_.neighbors(x), in that order.
  [[nodiscard]] graph::NeighborVisitor adjacency() const;
  void push_snapshot();
  void advance_round(const dos::Attack& attack, EpochReport& report);
  /// Offers one sampler-exchange message to the fault hook; true = lost
  /// (dropped outright or delayed past the exchange window).
  bool message_lost(std::uint64_t from, std::uint64_t to);
};

}  // namespace reconfnet::apps
