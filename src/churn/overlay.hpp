// The churn-resistant overlay of Section 4: an H-graph that reconfigures
// itself every O(log log n) rounds via Algorithm 3 while an omniscient
// adversary churns members at a constant rate (Theorem 5). Joins and leaves
// prescribed during epoch E take effect at the end of epoch E+1, i.e. within
// the paper's T = O(log log n) adaptation delay, and membership is monotonic
// (each id enters and leaves exactly once).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "adversary/churn.hpp"
#include "churn/reconfigure.hpp"
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

  /// Ids currently flagged to leave (still members until their epoch ends).
  [[nodiscard]] std::vector<sim::NodeId> departing() const;

  /// The order of members along one Hamilton cycle (ground truth; used by
  /// omniscient topology-aware adversaries).
  [[nodiscard]] std::vector<sim::NodeId> cycle_order(int cycle) const;

  /// Number of ids ever admitted (initial members plus accepted joins);
  /// every one of them is a member or has left for good.
  [[nodiscard]] std::size_t ever_member_count() const {
    return ever_member_count_;
  }

 private:
  Config config_;
  support::Rng rng_;
  sim::IdAllocator ids_;
  std::vector<sim::NodeId> members_;  // index -> id
  graph::HGraph topology_;
  sim::Round round_ = 0;

  // Staged churn, applied at the next epoch boundary.
  std::unordered_map<sim::NodeId, std::vector<sim::NodeId>> staged_joins_;
  std::unordered_set<sim::NodeId> staged_leaves_;
  // Leavers of the epoch currently executing (visible as departing, but a
  // lenient adversary may still sponsor joins on them, exercising the
  // delegation rule at the epoch boundary).
  std::unordered_set<sim::NodeId> epoch_departing_;
  // ever_member_[id]: `id` was ever admitted. Ids come dense and monotonic
  // from ids_, so one bit per issued id backs the never-reused check.
  std::vector<bool> ever_member_;
  std::size_t ever_member_count_ = 0;

  void poll_adversary(adversary::ChurnAdversary& adversary, sim::Round rounds);
};

}  // namespace reconfnet::churn
