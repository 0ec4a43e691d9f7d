#include "dos/overlay.hpp"

#include <algorithm>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "dos/group_epoch.hpp"
#include "graph/connectivity.hpp"

namespace reconfnet::dos {

DosOverlay::DosOverlay(const Config& config)
    : config_(config),
      rng_(config.seed),
      groups_(GroupTable::random(
          choose_dimension(config.size, /*arity=*/2, config.group_c),
          config.size, rng_)) {
  rounds_.push_snapshot(groups_.all_nodes(), groups_.overlay_edges());
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
  if (!graph::groups_connected_excluding(groups_.groups(), groups_.adjacency(),
                                         blocked)) {
    ++report.disconnected_rounds;
  }
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
  auto epoch_rng = rng_.split(static_cast<std::uint64_t>(round()) + 3);
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
      kNoLoss);

  // Final reorganization phase: four rounds of group-to-group traffic
  // (assignments out, new groups gathered, neighbor groups exchanged, new
  // views delivered).
  {
    const auto reorg_bits = static_cast<std::uint64_t>(
        avg_group * avg_group * static_cast<double>(d + 1) *
        static_cast<double>(kIdBits));
    const auto state_bits = supernode_state_bits(sampled.cores[0], avg_group);
    for (int r = 0; r < 4; ++r) {
      advance_round(attack, state_bits, reorg_bits, report);
    }
  }

  auto fail = [&](const char* reason) {
    report.success = false;
    report.failure_reason = reason;
    report.min_group_size = groups_.min_group_size();
    report.max_group_size = groups_.max_group_size();
    return report;
  };
  // Lemma 14/15 require at least one available node per group per round; if
  // the adversary ever silenced a whole group, the epoch's simulation is not
  // trustworthy and the old groups stay.
  if (report.silenced_group_rounds > 0) return fail("a group was silenced");
  if (sampled.dry_events > 0) return fail("supernode sampling ran dry");
  switch (reassign_to_samples(groups_, sampled.cores)) {
    case Reassignment::kSampleShortage:
      return fail("too few samples for a group (|R(x)| > beta log n)");
    case Reassignment::kEmptySupernode:
      return fail("reassignment left a supernode empty");
    case Reassignment::kDone:
      break;
  }

  // The epoch's one edge list: the audit reads it, the snapshot keeps it.
  auto edges = groups_.overlay_edges();
  // Epoch-boundary audit (Section 5): the rebuilt groups partition the node
  // set with Theta(log n) representatives each, and the overlay edge list is
  // a well-formed undirected graph.
  if (audit::enabled()) {
    auto violations = audit::check_group_table(groups_, config_.group_c);
    for (auto& violation :
         audit::check_edge_symmetry(groups_.all_nodes(), edges)) {
      // reconfnet-hotcheck: allow(RNH404) audit-only path, sizes unknowable
      violations.push_back(std::move(violation));
    }
    audit::enforce(std::move(violations));
  }
  rounds_.push_snapshot(groups_.all_nodes(), std::move(edges));

  report.success = report.disconnected_rounds == 0;
  if (!report.success) report.failure_reason = "disconnected";
  report.reorganized = true;
  report.min_group_size = groups_.min_group_size();
  report.max_group_size = groups_.max_group_size();
  return report;
}

}  // namespace reconfnet::dos
