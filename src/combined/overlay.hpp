// The combined churn+DoS-resistant overlay of Section 6: the grouped
// hypercube of Section 5 with variable-dimension supernodes that split and
// merge to track the churning node count (Equation (1), Lemma 18). It
// withstands a (1/2 - eps)-bounded Omega(log log n)-late DoS adversary and
// simultaneous adversarial churn with rate gamma^{1/Theta(log log n)}
// (Theorem 7).
//
// Sampling with variable dimensions: Algorithm 2 runs over the common label
// prefix d_min (the "classes"), then each sample is refined by one
// constant-work round in which the owning class extends the sample uniformly
// over its <= 4 descendant supernodes — yielding Pr[x] = 2^{-d(x)} exactly
// (see DESIGN.md's substitution table).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adversary/churn.hpp"
#include "churn/staged_churn.hpp"
#include "combined/split_merge.hpp"
#include "dos/attack.hpp"
#include "graph/connectivity.hpp"
#include "sampling/schedule.hpp"
#include "sim/snapshot.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::combined {

class CombinedOverlay {
 public:
  struct Config {
    std::size_t initial_size = 1024;
    /// Equation (1) constant: c*d(x) - c < |R(x)| < 2*c*d(x).
    double group_c = 2.0;
    sampling::SamplingConfig sampling{};
    int size_estimate_slack = 0;
    std::uint64_t seed = 1;
  };

  struct EpochReport {
    bool success = false;
    std::string failure_reason;
    bool reorganized = false;
    sim::Round rounds = 0;
    std::size_t silenced_group_rounds = 0;
    std::size_t disconnected_rounds = 0;
    double min_available_fraction = 1.0;
    /// Lemma 18 observables.
    int min_dimension = 0;
    int max_dimension = 0;
    SplitMergeOps split_merge;
    std::size_t joins_applied = 0;
    std::size_t leaves_applied = 0;
    std::size_t members_after = 0;
    std::size_t min_group_size = 0;
    std::size_t max_group_size = 0;
    std::uint64_t max_node_bits_per_round = 0;
  };

  explicit CombinedOverlay(const Config& config);

  /// One reconfiguration epoch under simultaneous churn and DoS attack.
  /// Both adversaries act every round; churn staged during this epoch takes
  /// effect at the end of the next one.
  EpochReport run_epoch(adversary::ChurnAdversary& churn,
                        const dos::Attack& attack);

  /// Crash-failure extension (Section 6's closing discussion): when crashes
  /// are distinguishable from DoS blocking, the crashed node's group
  /// emulates its departure. The node stops sending and receiving
  /// permanently (it behaves as blocked in every round) and its group
  /// stages a leave on its behalf, so it is excluded at the next epoch
  /// boundary. Crashing a non-member or an already-crashed node throws.
  void crash(sim::NodeId node);

  [[nodiscard]] const std::vector<sim::NodeId>& crashed() const {
    return crashed_;
  }

  [[nodiscard]] const SuperGroups& supernodes() const { return super_; }
  /// Topology snapshots back to the lateness horizon (what a t-late
  /// adversary observes); the newest is the determinism tests' witness.
  [[nodiscard]] const sim::SnapshotBuffer& snapshots() const {
    return rounds_.snapshots();
  }
  [[nodiscard]] std::size_t size() const { return super_.node_count(); }
  [[nodiscard]] sim::Round round() const { return rounds_.round(); }
  [[nodiscard]] sim::IdAllocator& ids() { return ids_; }
  [[nodiscard]] std::vector<sim::NodeId> members() const { return members_; }
  /// The staged churn and the ids ever admitted (Section 1.1's rule).
  [[nodiscard]] const churn::StagedChurn& churn() const { return churn_; }

  /// The initial dimension for n nodes per Lemma 18: the unique d with
  /// 2^d * 2cd < n <= 2^{d+1} * 2c(d+1).
  static int initial_dimension(std::size_t n, double group_c);

 private:
  Config config_;
  support::Rng rng_;
  sim::IdAllocator ids_;
  SuperGroups super_;
  dos::AttackRounds rounds_;

  // The topology of super_, rebuilt only where membership or labels change
  // (construction, and after the epoch's reassign and split/merge) and read
  // by every round.
  std::vector<sim::NodeId> members_;  ///< super_.all_nodes()
  graph::NeighborVisitor adjacency_;  ///< super_.adjacency()

  churn::StagedChurn churn_;
  std::vector<sim::NodeId> crashed_;  ///< in crash order

  static SuperGroups bootstrap(const Config& config, support::Rng& rng,
                               sim::IdAllocator& ids);

  void advance_round(adversary::ChurnAdversary& churn,
                     const dos::Attack& attack, std::uint64_t state_bits,
                     EpochReport& report);
  /// Rebuilds members_ and adjacency_ from super_ and hands the members to
  /// churn_.
  void refresh_topology();
};

}  // namespace reconfnet::combined
