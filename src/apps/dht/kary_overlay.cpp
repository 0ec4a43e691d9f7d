#include "apps/dht/kary_overlay.hpp"

#include <algorithm>
#include <bit>

#include "dos/group_epoch.hpp"
#include "graph/connectivity.hpp"

namespace reconfnet::apps {

KaryGroupedOverlay::KaryGroupedOverlay(const Config& config)
    : config_(config),
      rng_(config.seed),
      cube_(config.arity, dos::choose_dimension(config.size, config.arity,
                                                config.group_c)),
      // k-ary vertices are the binary hypercube's vertices over d * log2(k)
      // coordinates (identity encoding for k = 2^j).
      table_(dos::GroupTable::random(
          cube_.dimension() * std::countr_zero(static_cast<unsigned>(
                                  config.arity)),
          config.size, rng_)) {
  push_snapshot();
}

graph::NeighborVisitor KaryGroupedOverlay::adjacency() const {
  return [this](std::size_t x, const std::function<void(std::size_t)>& visit) {
    for (std::uint64_t y : cube_.neighbors(x)) visit(y);
  };
}

bool KaryGroupedOverlay::group_available(
    std::uint64_t x, std::size_t round,
    std::span<const sim::BlockedSet> blocked_per_round) const {
  static const sim::BlockedSet kNone;
  const auto& now =
      round < blocked_per_round.size() ? blocked_per_round[round] : kNone;
  const auto& before = (round > 0 && round - 1 < blocked_per_round.size())
                           ? blocked_per_round[round - 1]
                           : kNone;
  const auto& members = table_.group(x);
  return std::any_of(members.begin(), members.end(), [&](sim::NodeId node) {
    return dos::available(node, now, before);
  });
}

void KaryGroupedOverlay::push_snapshot() {
  std::vector<std::pair<sim::NodeId, sim::NodeId>> edges;
  if (config_.snapshot_edges) edges = overlay_edges();
  rounds_.push_snapshot(table_.all_nodes(), std::move(edges));
}

bool KaryGroupedOverlay::message_lost(std::uint64_t from, std::uint64_t to) {
  fate_.clear();
  fault_hook_->on_message(static_cast<sim::NodeId>(from),
                          static_cast<sim::NodeId>(to), round(), fate_);
  if (fate_.empty()) return true;
  for (const sim::Round delay : fate_) {
    if (delay == 0) return false;
  }
  // All copies delayed past the synchronous exchange window.
  return true;
}

void KaryGroupedOverlay::advance_round(const dos::Attack& attack,
                                       EpochReport& report) {
  const auto nodes = table_.all_nodes();
  const sim::BlockedSet& blocked = rounds_.block(attack, nodes);
  rounds_.tally(table_.groups(), report);
  if (!graph::groups_connected_excluding(table_.groups(), adjacency(),
                                         blocked)) {
    ++report.disconnected_rounds;
  }
  if (fault_hook_ != nullptr) fault_hook_->on_step(round());
  rounds_.end_round();
  ++report.rounds;
}

KaryGroupedOverlay::EpochReport KaryGroupedOverlay::run_epoch(
    const dos::Attack& attack) {
  EpochReport report;
  const auto schedule = sampling::group_schedule(
      sampling::SizeEstimate::from_true_size(config_.size,
                                             config_.size_estimate_slack),
      table_.dimension(), table_.max_group_size(), config_.sampling);
  auto epoch_rng = rng_.split(static_cast<std::uint64_t>(round()) + 11);
  // Request and response legs of the sampler exchange are ordinary wire
  // traffic to the fault layer; a lost leg starves the requester (and may
  // fail the epoch through the dry-sampler check below).
  const auto sampled = dos::sample_supernodes(
      table_.dimension(), table_.supernodes(), schedule, epoch_rng,
      [&](int /*iteration*/, bool /*synchronization*/,
          const auto& /*cores*/) { advance_round(attack, report); },
      [&](std::uint64_t from, std::uint64_t to) {
        return fault_hook_ != nullptr && message_lost(from, to);
      });
  report.fault_dropped_messages = sampled.lost_messages;
  for (int r = 0; r < 4; ++r) advance_round(attack, report);

  auto finish = [&](bool success, std::string reason) {
    report.success = success;
    report.failure_reason = std::move(reason);
    report.min_group_size = table_.min_group_size();
    report.max_group_size = table_.max_group_size();
    return report;
  };

  if (report.silenced_group_rounds > 0) {
    return finish(false, "a group was silenced");
  }
  if (sampled.dry_events > 0) {
    return finish(false, "supernode sampling ran dry");
  }
  switch (dos::reassign_to_samples(table_, sampled.cores)) {
    case dos::Reassignment::kSampleShortage:
      return finish(false, "too few samples for a group");
    case dos::Reassignment::kEmptySupernode:
      return finish(false, "reassignment left a supernode empty");
    case dos::Reassignment::kDone:
      break;
  }
  push_snapshot();
  report.reorganized = true;
  return finish(report.disconnected_rounds == 0,
                report.disconnected_rounds == 0 ? "" : "disconnected");
}

}  // namespace reconfnet::apps
