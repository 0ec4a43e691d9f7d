#include "dos/overlay.hpp"

#include <algorithm>
#include <bit>
#include <functional>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "dos/group_epoch.hpp"

namespace reconfnet::dos {

DosOverlay::DosOverlay(const Config& config, std::uint64_t salt)
    : config_(config),
      salt_(salt),
      rng_(config.seed),
      cube_(config.arity,
            choose_dimension(config.size, config.arity, config.group_c)),
      groups_(GroupTable::random(
          cube_.dimension() *
              std::countr_zero(static_cast<unsigned>(config.arity)),
          config.size, rng_)) {
  rounds_.push_snapshot(groups_.all_nodes(), kept_edges());
}

std::vector<std::pair<sim::NodeId, sim::NodeId>> DosOverlay::kept_edges()
    const {
  if (!config_.snapshot_edges) return {};
  return overlay_edges();
}

graph::NeighborVisitor DosOverlay::adjacency() const {
  // Digit i of vertex x is bits [i * bits, (i + 1) * bits) of x.
  return [d = cube_.dimension(),
          bits = std::countr_zero(static_cast<unsigned>(cube_.arity()))](
             std::size_t x, const std::function<void(std::size_t)>& visit) {
    const std::size_t top = (std::size_t{1} << bits) - 1;
    for (int shift = 0; shift < d * bits; shift += bits) {
      const std::size_t digit = (x >> shift) & top;
      for (std::size_t value = 0; value <= top; ++value) {
        if (value != digit) visit(x ^ ((value ^ digit) << shift));
      }
    }
  };
}

bool DosOverlay::group_available(
    std::uint64_t x, std::size_t round,
    std::span<const sim::BlockedSet> blocked_per_round) const {
  static const sim::BlockedSet kNone;
  const auto at = [&](std::size_t r) -> const sim::BlockedSet& {
    return r < blocked_per_round.size() ? blocked_per_round[r] : kNone;
  };
  const auto& now = at(round);
  const auto& before = at(round - 1);  // wraps past the end at round 0
  return std::ranges::any_of(groups_.group(x), [&](sim::NodeId node) {
    return available(node, now, before);
  });
}

void DosOverlay::advance_round(const Attack& attack,
                               std::uint64_t state_bits,
                               std::uint64_t extra_group_bits,
                               EpochReport& report) {
  // The id space is public knowledge; the secret is the group structure.
  const auto nodes = groups_.all_nodes();
  const sim::BlockedSet& blocked = rounds_.block(attack, nodes);
  // Communication work: every available node broadcasts the supernode
  // state S(x) to all |R(x)| members and receives the broadcasts of the
  // other available members; during synchronization rounds it additionally
  // relays the supernode's outgoing messages (extra_group_bits).
  const std::uint64_t max_load = rounds_.tally(groups_.groups(), report);
  report.max_node_bits_per_round = std::max(
      report.max_node_bits_per_round, max_load * state_bits + extra_group_bits);

  // Connectivity of the overlay restricted to non-blocked nodes.
  if (!graph::groups_connected_excluding(groups_.groups(), adjacency(),
                                         blocked)) {
    ++report.disconnected_rounds;
  }
  if (fault_hook_ != nullptr) fault_hook_->on_step(round());
  rounds_.end_round();
  ++report.rounds;
}

DosOverlay::EpochReport DosOverlay::run_static(const Attack& attack,
                                               sim::Round rounds) {
  EpochReport report;
  // Keepalive broadcast only: one id per group member.
  const auto state_bits =
      static_cast<std::uint64_t>(groups_.max_group_size()) * kIdBits;
  for (sim::Round r = 0; r < rounds; ++r) {
    advance_round(attack, state_bits, 0, report);
  }
  report.success = report.disconnected_rounds == 0;
  if (!report.success) report.failure_reason = "disconnected";
  report.min_group_size = groups_.min_group_size();
  report.max_group_size = groups_.max_group_size();
  return report;
}

DosOverlay::EpochReport DosOverlay::run_epoch(const Attack& attack) {
  EpochReport report;
  const std::size_t n = groups_.size();
  const int d = groups_.dimension();
  const double avg_group = static_cast<double>(n) /
                           static_cast<double>(groups_.supernodes());
  const auto schedule = sampling::group_schedule(
      sampling::SizeEstimate::from_true_size(n, config_.size_estimate_slack),
      d, groups_.max_group_size(), config_.sampling);

  // Each primitive round is a simulation round plus a synchronization round
  // in which the group also relays the supernode's outgoing messages.
  // Request and response legs are ordinary wire traffic to the fault hook;
  // a lost leg starves the requester (and may leave its sampler dry).
  auto epoch_rng = rng_.split(static_cast<std::uint64_t>(round()) + salt_);
  const auto sampled = sample_supernodes(
      d, groups_.supernodes(), schedule, epoch_rng,
      [&](int i, bool synchronization, const auto& cores) {
        const auto extra =
            synchronization
                ? static_cast<std::uint64_t>(
                      static_cast<double>(
                          schedule.m[static_cast<std::size_t>(i)]) *
                      avg_group * static_cast<double>(kIdBits))
                : 0;
        advance_round(attack, supernode_state_bits(cores[0], avg_group), extra,
                      report);
      },
      [&](std::uint64_t from, std::uint64_t to) {
        return fault_hook_ != nullptr &&
               sim::lost_to_hook(*fault_hook_, from, to, round(), fate_);
      });
  report.fault_dropped_messages = sampled.lost_messages;

  // Final reorganization phase: four rounds of group-to-group traffic
  // (assignments out, new groups gathered, neighbor groups exchanged, new
  // views delivered) between a group and its (k - 1) * d neighbors.
  {
    const auto reorg_bits = static_cast<std::uint64_t>(
        avg_group * avg_group * static_cast<double>(cube_.degree() + 1) *
        static_cast<double>(kIdBits));
    const auto state_bits = supernode_state_bits(sampled.cores[0], avg_group);
    for (int r = 0; r < 4; ++r) {
      advance_round(attack, state_bits, reorg_bits, report);
    }
  }

  auto finish = [&](const char* failure_reason) {
    report.success = failure_reason[0] == '\0';
    report.failure_reason = failure_reason;
    report.min_group_size = groups_.min_group_size();
    report.max_group_size = groups_.max_group_size();
    return report;
  };
  // Lemma 14/15 require at least one available node per group per round; if
  // the adversary ever silenced a whole group, the epoch's simulation is not
  // trustworthy and the old groups stay.
  if (report.silenced_group_rounds > 0) return finish("a group was silenced");
  if (sampled.dry_events > 0) return finish("supernode sampling ran dry");
  switch (reassign_to_samples(groups_, sampled.cores)) {
    case Reassignment::kSampleShortage:
      return finish("too few samples for a group (|R(x)| > beta log n)");
    case Reassignment::kEmptySupernode:
      return finish("reassignment left a supernode empty");
    case Reassignment::kDone:
      break;
  }

  // The epoch's one edge list, if kept: the audit reads it, the snapshot too.
  auto edges = kept_edges();
  // Epoch-boundary audit (Section 5): the rebuilt groups partition the node
  // set with Theta(log n) representatives each, and the overlay edge list is
  // a well-formed undirected graph.
  if (audit::enabled()) {
    auto violations =
        audit::check_group_table(groups_, config_.group_c, config_.arity);
    for (auto& violation :
         audit::check_edge_symmetry(groups_.all_nodes(), edges)) {
      // reconfnet-hotcheck: allow(RNH404) audit-only path, sizes unknowable
      violations.push_back(std::move(violation));
    }
    audit::enforce(std::move(violations));
  }
  rounds_.push_snapshot(groups_.all_nodes(), std::move(edges));
  report.reorganized = true;
  return finish(report.disconnected_rounds == 0 ? "" : "disconnected");
}

}  // namespace reconfnet::dos
