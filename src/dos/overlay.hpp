// The DoS-resistant overlay of Section 5. Nodes form groups representing the
// supernodes of a d-dimensional hypercube (d maximal with
// 2^d <= n / (c log n)) and rebuild the groups every Theta(log log n) rounds:
// the groups jointly simulate the rapid node sampling primitive (Algorithm 2)
// for their supernodes — every available representative executes the
// supernode's step and the lowest-id available node's version is adopted —
// and a final four-round phase reassigns every node to a uniformly random
// supernode. A (1/2 - eps)-bounded adversary that only sees topology
// information at least Omega(log log n) rounds old cannot tell which nodes
// currently share a group, so w.h.p. every group keeps an available node in
// every round and the non-blocked nodes stay connected (Theorem 6).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dos/attack.hpp"
#include "dos/group_table.hpp"
#include "sampling/schedule.hpp"
#include "sim/snapshot.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::dos {

class DosOverlay {
 public:
  struct Config {
    std::size_t size = 1024;
    /// Group-size constant: dimension d is maximal with
    /// 2^d <= size / (group_c * log2 size).
    double group_c = 1.0;
    sampling::SamplingConfig sampling{};
    int size_estimate_slack = 0;
    std::uint64_t seed = 1;
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
  };

  explicit DosOverlay(const Config& config);

  /// Runs one full reconfiguration epoch under the given attack.
  EpochReport run_epoch(const Attack& attack);

  /// Baseline: runs `rounds` rounds with reconfiguration switched off (the
  /// groups never change), under the same attack and metrics. This is the
  /// static overlay the paper's introduction argues cannot survive once the
  /// adversary learns the topology.
  EpochReport run_static(const Attack& attack, sim::Round rounds);

  [[nodiscard]] const GroupTable& groups() const { return groups_; }
  /// Topology snapshots back to the lateness horizon (what a t-late
  /// adversary observes); the newest is the determinism tests' witness.
  [[nodiscard]] const sim::SnapshotBuffer& snapshots() const {
    return rounds_.snapshots();
  }
  [[nodiscard]] int dimension() const { return groups_.dimension(); }
  [[nodiscard]] std::size_t size() const { return groups_.size(); }
  [[nodiscard]] sim::Round round() const { return rounds_.round(); }

 private:
  Config config_;
  support::Rng rng_;
  GroupTable groups_;
  AttackRounds rounds_;

  /// Advances one overlay round: adversary blocks, availability and
  /// connectivity are evaluated, and the per-node communication work of the
  /// ongoing state broadcast (state_bits per group member) is charged.
  void advance_round(const Attack& attack, std::uint64_t state_bits,
                     std::uint64_t extra_group_bits, EpochReport& report);
};

}  // namespace reconfnet::dos
