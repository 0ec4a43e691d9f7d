// The DoS-resistant overlay of Section 5, on a k-ary cube of supernodes.
// Nodes form groups representing the vertices of a d-dimensional k-ary
// hypercube (Definition 1; d maximal with k^d <= n / (c log n)) and rebuild
// the groups every Theta(log log n) rounds: the groups jointly simulate the
// rapid node sampling primitive (Algorithm 2) for their supernodes — every
// available representative executes the supernode's step and the lowest-id
// available node's version is adopted — and a final four-round phase
// reassigns every node to a uniformly random supernode. A (1/2 - eps)-bounded
// adversary that only sees topology information at least Omega(log log n)
// rounds old cannot tell which nodes currently share a group, so w.h.p.
// every group keeps an available node in every round and the non-blocked
// nodes stay connected (Theorem 6).
//
// k = 2 is Section 5's binary hypercube; k = 2^j is the robust DHT's overlay
// of Section 7.2 (apps::KaryGroupedOverlay). A k-ary vertex concatenates its
// digits' bits, so the groups live in one GroupTable over d * log2(k) binary
// coordinates and Algorithm 2 runs over them unchanged; only the adjacency
// (one digit changed, one bit at k = 2) depends on k.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dos/attack.hpp"
#include "dos/group_table.hpp"
#include "graph/connectivity.hpp"
#include "graph/kary_hypercube.hpp"
#include "sampling/schedule.hpp"
#include "sim/delivery.hpp"
#include "sim/snapshot.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::dos {

class DosOverlay {
 public:
  struct Config {
    std::size_t size = 1024;
    int arity = 2;  ///< k; must be a power of two >= 2
    /// Group-size constant: dimension d is maximal with
    /// k^d <= size / (group_c * log2 size).
    double group_c = 1.0;
    sampling::SamplingConfig sampling{};
    int size_estimate_slack = 0;
    std::uint64_t seed = 1;
    /// Materialize edge lists in topology snapshots. An edge list has
    /// Theta((n/d * log n)^2 * d) pairs — gigabytes at n = 10^5 — and only
    /// stale-view adversaries read it, so large runs without one turn it off.
    bool snapshot_edges = true;
  };

  struct EpochReport {
    bool success = false;
    std::string failure_reason;
    bool reorganized = false;  ///< groups were rebuilt at the end
    sim::Round rounds = 0;
    /// (group, round) pairs in which no representative was available — each
    /// one is a violation of the Lemma 17 condition.
    std::size_t silenced_group_rounds = 0;
    /// Rounds in which the non-blocked nodes were disconnected (the paper's
    /// failure event).
    std::size_t disconnected_rounds = 0;
    /// min over (group, round) of (available nodes) / |group|.
    double min_available_fraction = 1.0;
    std::size_t min_group_size = 0;  ///< after the epoch
    std::size_t max_group_size = 0;
    std::uint64_t max_node_bits_per_round = 0;
    /// Sampler requests/responses lost to the fault hook (DESIGN.md §10).
    std::size_t fault_dropped_messages = 0;
  };

  explicit DosOverlay(const Config& config) : DosOverlay(config, 3) {}

  /// Attaches (or detaches, with nullptr) a fault-injection hook to the
  /// epoch's sampler exchange: every request and response leg is offered to
  /// the hook, and the hook's clock ticks once per overlay round. The hook
  /// must outlive the overlay's epochs.
  void set_fault_hook(sim::DeliveryHook* hook) { fault_hook_ = hook; }

  /// Runs one full reconfiguration epoch under the given attack.
  EpochReport run_epoch(const Attack& attack);

  /// Baseline: runs `rounds` rounds with reconfiguration switched off (the
  /// groups never change), under the same attack and metrics. This is the
  /// static overlay the paper's introduction argues cannot survive once the
  /// adversary learns the topology.
  EpochReport run_static(const Attack& attack, sim::Round rounds);

  /// The groups, indexed by k-ary vertex; vertex x is binary supernode x of
  /// the d * log2(k)-dimensional table.
  [[nodiscard]] const GroupTable& groups() const { return groups_; }
  /// Topology snapshots back to the lateness horizon (what a t-late
  /// adversary observes); the newest is the determinism tests' witness.
  [[nodiscard]] const sim::SnapshotBuffer& snapshots() const {
    return rounds_.snapshots();
  }
  [[nodiscard]] const graph::KaryHypercube& cube() const { return cube_; }
  [[nodiscard]] int dimension() const { return cube_.dimension(); }
  [[nodiscard]] std::size_t size() const { return groups_.size(); }
  [[nodiscard]] sim::Round round() const { return rounds_.round(); }

  /// Cliques inside groups plus complete bipartite connections between
  /// groups of adjacent vertices: what the DoS adversary observes.
  [[nodiscard]] std::vector<std::pair<sim::NodeId, sim::NodeId>>
  overlay_edges() const {
    return graph::group_edges(groups_.groups(), adjacency());
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

 protected:
  /// Epoch e draws from the seed's stream split at its first round + salt.
  DosOverlay(const Config& config, std::uint64_t salt);

 private:
  Config config_;
  std::uint64_t salt_;
  support::Rng rng_;
  graph::KaryHypercube cube_;
  GroupTable groups_;
  AttackRounds rounds_;
  sim::DeliveryHook* fault_hook_ = nullptr;
  std::vector<sim::Round> fate_;  ///< fault-hook scratch

  /// Adjacency of the groups: x with one digit changed, digits and then
  /// values ascending (at k = 2, x's bit flips from the lowest bit up).
  [[nodiscard]] graph::NeighborVisitor adjacency() const;
  /// overlay_edges() if snapshots keep edge lists, else none.
  [[nodiscard]] std::vector<std::pair<sim::NodeId, sim::NodeId>> kept_edges()
      const;

  /// Advances one overlay round: adversary blocks, availability and
  /// connectivity are evaluated, and the per-node communication work of the
  /// ongoing state broadcast (state_bits per group member) is charged.
  void advance_round(const Attack& attack, std::uint64_t state_bits,
                     std::uint64_t extra_group_bits, EpochReport& report);
};

}  // namespace reconfnet::dos
