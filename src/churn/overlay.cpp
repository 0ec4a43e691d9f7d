#include "churn/overlay.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "graph/connectivity.hpp"

namespace reconfnet::churn {

ChurnOverlay::ChurnOverlay(const Config& config)
    : config_(config),
      rng_(config.seed),
      topology_(graph::HGraph::random(config.initial_size, config.degree,
                                      rng_)) {
  members_.resize(config.initial_size);
  for (sim::NodeId& id : members_) id = ids_.allocate();
  churn_.set_members(members_);
}

std::vector<sim::NodeId> ChurnOverlay::cycle_order(int cycle) const {
  std::vector<sim::NodeId> order;
  order.reserve(members_.size());
  std::size_t v = 0;
  for (std::size_t steps = 0; steps < members_.size(); ++steps) {
    order.push_back(members_[v]);
    v = topology_.succ(cycle, v);
  }
  return order;
}

ChurnOverlay::EpochReport ChurnOverlay::run_epoch(
    adversary::ChurnAdversary& adversary) {
  EpochReport report;
  report.members_before = members_.size();

  // The staged churn is this epoch's; churn arriving while the epoch runs is
  // staged for the next one (the paper's T = O(log log n) delay).
  churn_.begin_epoch();
  ReconfigInput input;
  input.topology = &topology_;
  input.members = members_;
  input.leaving.assign(members_.size(), false);
  input.joiners.assign(members_.size(), {});
  std::size_t join_count = 0;
  for (std::size_t v = 0; v < members_.size(); ++v) {
    input.leaving[v] = churn_.leaving(members_[v]);
    for (const auto& join : churn_.joins_of(members_[v])) {
      input.joiners[v].push_back(join.node);
    }
    join_count += input.joiners[v].size();
  }
  input.sampling = config_.sampling;
  input.estimate = sampling::SizeEstimate::from_true_size(
      std::max<std::size_t>(members_.size() + join_count, 4),
      config_.size_estimate_slack);
  input.active_search_steps = config_.active_search_steps;
  input.fault_hook = config_.fault_hook;
  input.reliable_settle_rounds = config_.reliable_settle_rounds;

  auto epoch_rng = rng_.split(static_cast<std::uint64_t>(round_) + 17);
  auto result = reconfigure(input, epoch_rng);

  // The adversary acts in every round the epoch took.
  for (sim::Round r = 0; r < std::max<sim::Round>(result.rounds, 1); ++r) {
    churn_.poll(adversary, round_++, members_, ids_);
  }

  report.rounds = result.rounds;
  report.max_node_bits_per_round = result.max_node_bits_per_round;
  report.cycle_stats = std::move(result.cycle_stats);

  if (!result.success) {
    report.success = false;
    report.failure_reason = std::move(result.failure_reason);
    report.members_after = members_.size();
    // The old topology stays in place and the epoch's churn is staged again.
    churn_.fail_epoch();
    report.connected = true;  // unchanged valid H-graph
    return report;
  }

  members_ = std::move(result.new_members);
  topology_ = std::move(*result.new_topology);
  // Epoch-boundary audit (Algorithm 3 postconditions): the rebuilt topology
  // is a d-regular union of Hamilton cycles with symmetric succ/pred maps,
  // and its vertex set matches the member list one-to-one.
  if (audit::enabled()) {
    auto violations = audit::check_hgraph(topology_, config_.degree);
    if (topology_.size() != members_.size()) {
      violations.push_back(
          {"hgraph.members",
           "topology has " + std::to_string(topology_.size()) +
               " vertices but the overlay has " +
               std::to_string(members_.size()) + " members"});
    }
    audit::enforce(std::move(violations));
  }
  report.success = true;
  report.members_after = members_.size();
  report.joins_applied = join_count;
  report.leaves_applied = static_cast<std::size_t>(
      std::count(input.leaving.begin(), input.leaving.end(), true));

  // Joins staged during the epoch whose sponsor just left are delegated to a
  // surviving member (the paper's delegation rule).
  churn_.end_epoch(members_, rng_);

  // Validate connectivity of the rebuilt overlay.
  report.connected = graph::is_connected(
      topology_.size(),
      [&](std::size_t v, const std::function<void(std::size_t)>& f) {
        for (auto w : topology_.neighbors(v)) f(w);
      });
  return report;
}

}  // namespace reconfnet::churn
