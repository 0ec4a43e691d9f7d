#include "churn/overlay.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "graph/connectivity.hpp"
#include "support/sorted.hpp"

namespace reconfnet::churn {

ChurnOverlay::ChurnOverlay(const Config& config)
    : config_(config),
      rng_(config.seed),
      topology_(graph::HGraph::random(config.initial_size, config.degree,
                                      rng_)) {
  members_.reserve(config.initial_size);
  for (std::size_t i = 0; i < config.initial_size; ++i) {
    members_.push_back(ids_.allocate());
  }
  ever_member_.assign(config.initial_size, true);
  ever_member_count_ = config.initial_size;
}

std::vector<sim::NodeId> ChurnOverlay::departing() const {
  std::vector<sim::NodeId> out(staged_leaves_.begin(), staged_leaves_.end());
  out.insert(out.end(), epoch_departing_.begin(), epoch_departing_.end());
  return out;
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

void ChurnOverlay::poll_adversary(adversary::ChurnAdversary& adversary,
                                  sim::Round rounds) {
  std::unordered_set<sim::NodeId> member_set(members_.begin(),
                                             members_.end());
  for (sim::Round r = 0; r < std::max<sim::Round>(rounds, 1); ++r) {
    const auto departing_now = departing();
    adversary::ChurnView view{round_ + r, members_, departing_now};
    const auto batch = adversary.next(view, ids_);
    for (const auto& [fresh, sponsor] : batch.joins) {
      if (!member_set.contains(sponsor) ||
          staged_leaves_.contains(sponsor)) {
        throw std::logic_error("churn adversary violated the sponsor rule");
      }
      if (fresh >= ids_.allocated()) {
        throw std::logic_error(
            "churn adversary joined an id the overlay never issued");
      }
      if (ever_member_.size() < ids_.allocated()) {
        ever_member_.resize(static_cast<std::size_t>(ids_.allocated()));
      }
      if (ever_member_[static_cast<std::size_t>(fresh)]) {
        throw std::logic_error("churn adversary reused a node id");
      }
      ever_member_[static_cast<std::size_t>(fresh)] = true;
      ++ever_member_count_;
      staged_joins_[sponsor].push_back(fresh);
    }
    for (sim::NodeId leaver : batch.leaves) {
      if (!member_set.contains(leaver)) {
        throw std::logic_error("churn adversary removed a non-member");
      }
      staged_leaves_.insert(leaver);
    }
  }
}

ChurnOverlay::EpochReport ChurnOverlay::run_epoch(
    adversary::ChurnAdversary& adversary) {
  EpochReport report;
  report.members_before = members_.size();

  // Snapshot the staged churn for this epoch; churn arriving while the epoch
  // runs is staged for the next one (the paper's T = O(log log n) delay).
  auto epoch_joins = std::move(staged_joins_);
  auto epoch_leaves = std::move(staged_leaves_);
  staged_joins_.clear();
  staged_leaves_.clear();
  epoch_departing_ = epoch_leaves;

  ReconfigInput input;
  input.topology = &topology_;
  input.members = members_;
  input.leaving.assign(members_.size(), false);
  input.joiners.assign(members_.size(), {});
  std::size_t join_count = 0;
  for (std::size_t v = 0; v < members_.size(); ++v) {
    if (epoch_leaves.contains(members_[v])) input.leaving[v] = true;
    auto it = epoch_joins.find(members_[v]);
    if (it != epoch_joins.end()) {
      input.joiners[v] = std::move(it->second);
      join_count += input.joiners[v].size();
    }
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
  poll_adversary(adversary, std::max<sim::Round>(result.rounds, 1));
  round_ += std::max<sim::Round>(result.rounds, 1);
  epoch_departing_.clear();

  report.rounds = result.rounds;
  report.max_node_bits_per_round = result.max_node_bits_per_round;
  report.cycle_stats = std::move(result.cycle_stats);

  if (!result.success) {
    report.success = false;
    report.failure_reason = std::move(result.failure_reason);
    report.members_after = members_.size();
    // The old topology stays in place; the staged churn snapshot is
    // re-staged so nothing is lost.
    for (auto& [sponsor, list] : epoch_joins) {
      auto& dest = staged_joins_[sponsor];
      dest.insert(dest.end(), list.begin(), list.end());
    }
    staged_leaves_.insert(epoch_leaves.begin(), epoch_leaves.end());
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
  std::unordered_set<sim::NodeId> member_set(members_.begin(),
                                             members_.end());
  // Sorted sponsor order: the delegation loop below consumes the overlay
  // RNG per orphan, so the processing order must not depend on hash-bucket
  // order or the whole trajectory forks across standard libraries.
  std::vector<sim::NodeId> orphaned_sponsors;
  for (sim::NodeId sponsor : support::sorted_keys(staged_joins_)) {
    if (!member_set.contains(sponsor)) orphaned_sponsors.push_back(sponsor);
  }
  for (sim::NodeId sponsor : orphaned_sponsors) {
    auto list = std::move(staged_joins_[sponsor]);
    staged_joins_.erase(sponsor);
    const sim::NodeId delegate =
        members_[rng_.below(members_.size())];
    auto& dest = staged_joins_[delegate];
    dest.insert(dest.end(), list.begin(), list.end());
  }
  // Leaves staged during the epoch that already left are impossible by the
  // sponsor/member checks; leaves referring to stayers remain staged.
  std::erase_if(staged_leaves_, [&member_set](sim::NodeId node) {
    return !member_set.contains(node);
  });

  // Validate connectivity of the rebuilt overlay.
  report.connected = graph::is_connected(
      topology_.size(),
      [&](std::size_t v, const std::function<void(std::size_t)>& f) {
        for (auto w : topology_.neighbors(v)) f(w);
      });
  return report;
}

}  // namespace reconfnet::churn
