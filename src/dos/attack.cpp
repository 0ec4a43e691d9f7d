#include "dos/attack.hpp"

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "sim/stale_view.hpp"

namespace reconfnet::dos {

std::uint64_t supernode_state_bits(const sampling::HypercubeSamplerCore& core,
                                   double avg_group) {
  std::size_t entries = 0;
  for (int j = 1; j <= core.dimension(); ++j) entries += core.block(j).size();
  const double per_entry = static_cast<double>(core.dimension()) +
                           avg_group * static_cast<double>(kIdBits);
  return 16 +
         static_cast<std::uint64_t>(static_cast<double>(entries) *
                                    per_entry) +
         static_cast<std::uint64_t>(avg_group) * kIdBits;
}

void AttackRounds::push_snapshot(
    std::vector<sim::NodeId> nodes,
    std::vector<std::pair<sim::NodeId, sim::NodeId>> edges) {
  sim::TopologySnapshot snap;
  snap.round = round_;
  snap.nodes = std::move(nodes);
  snap.edges = std::move(edges);
  snapshots_.push(std::move(snap));
}

sim::BlockedSet& AttackRounds::block(
    const Attack& attack, std::span<const sim::NodeId> universe,
    const std::function<bool(sim::NodeId)>& known) {
  if (attack.adversary == nullptr) return blocked_;
  const auto budget = static_cast<std::size_t>(
      attack.blocked_fraction * static_cast<double>(universe.size()));
  snapshots_.ensure_lateness_horizon(attack.lateness);
  const sim::StaleSnapshotView stale =
      sim::serve_stale(snapshots_, round_, attack.lateness);
  blocked_ = attack.adversary->choose(stale, universe, budget, round_);
  // Round-boundary audit: an r-bounded adversary must respect its budget
  // and may only block ids that exist. Under churn a t-late adversary
  // legitimately wastes budget on ids that have since left, so the combined
  // overlay accepts every id it ever admitted (ids are never reused).
  if (audit::enabled()) {
    audit::enforce(known ? audit::check_blocked_budget(blocked_, budget, known)
                         : audit::check_blocked_budget(blocked_, budget,
                                                       universe));
  }
  return blocked_;
}

void AttackRounds::end_round() {
  std::swap(blocked_prev_, blocked_);
  blocked_.clear();
  ++round_;
}

}  // namespace reconfnet::dos
