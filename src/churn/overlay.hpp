// The churn-resistant overlay of Section 4: an H-graph that reconfigures
// itself every O(log log n) rounds via Algorithm 3 while an omniscient
// adversary churns members at a constant rate (Theorem 5). Joins and leaves
// prescribed during epoch E take effect at the end of epoch E+1, i.e. within
// the paper's T = O(log log n) adaptation delay, and membership is monotonic
// (each id enters and leaves exactly once).
#pragma once

#include <cstdint>
#include <vector>

#include "adversary/churn.hpp"
#include "churn/reconfigure.hpp"
#include "churn/staged_churn.hpp"
#include "graph/hgraph.hpp"
#include "sampling/schedule.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::churn {

class ChurnOverlay {
 public:
  struct Config {
    std::size_t initial_size = 256;
    int degree = 8;
    sampling::SamplingConfig sampling{};
    /// Additive slack of the size-estimate oracle (Section 4).
    int size_estimate_slack = 0;
    int active_search_steps = 24;
    std::uint64_t seed = 1;
    /// Optional fault-injection hook forwarded to every bus of every epoch.
    sim::DeliveryHook* fault_hook = nullptr;
    /// Settle budget forwarded to ReconfigInput::reliable_settle_rounds; 0
    /// runs the paper's bare one-round phases.
    sim::Round reliable_settle_rounds = 0;
  };

  struct EpochReport {
    bool success = false;
    std::string failure_reason;
    sim::Round rounds = 0;
    std::uint64_t max_node_bits_per_round = 0;
    std::size_t members_before = 0;
    std::size_t members_after = 0;
    std::size_t joins_applied = 0;
    std::size_t leaves_applied = 0;
    /// The rebuilt topology is a valid connected H-graph.
    bool connected = false;
    std::vector<CycleStats> cycle_stats;
  };

  explicit ChurnOverlay(const Config& config);

  /// Runs one reconfiguration epoch. The adversary is consulted once per
  /// communication round of the epoch; churn prescribed during this epoch is
  /// staged and takes effect at the end of the *next* epoch.
  EpochReport run_epoch(adversary::ChurnAdversary& adversary);

  [[nodiscard]] const std::vector<sim::NodeId>& members() const {
    return members_;
  }
  [[nodiscard]] const graph::HGraph& topology() const { return topology_; }
  [[nodiscard]] sim::IdAllocator& ids() { return ids_; }
  [[nodiscard]] sim::Round round() const { return round_; }

  /// The order of members along one Hamilton cycle (ground truth; used by
  /// omniscient topology-aware adversaries).
  [[nodiscard]] std::vector<sim::NodeId> cycle_order(int cycle) const;

  /// The staged churn and the ids ever admitted (Section 1.1's rule).
  [[nodiscard]] const StagedChurn& churn() const { return churn_; }

 private:
  Config config_;
  support::Rng rng_;
  sim::IdAllocator ids_;
  std::vector<sim::NodeId> members_;  // index -> id
  graph::HGraph topology_;
  sim::Round round_ = 0;
  StagedChurn churn_;
};

}  // namespace reconfnet::churn
