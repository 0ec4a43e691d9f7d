#include "dos/overlay.hpp"

#include <algorithm>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "dos/group_epoch.hpp"
#include "graph/connectivity.hpp"
#include "sim/stale_view.hpp"

namespace reconfnet::dos {
namespace {

/// Wire size of one supernode-level message replicated to a whole group.
constexpr std::uint64_t kIdBits = 64;

}  // namespace

DosOverlay::DosOverlay(const Config& config)
    : config_(config),
      rng_(config.seed),
      groups_(GroupTable::random(
          choose_dimension(config.size, /*arity=*/2, config.group_c),
          config.size, rng_)) {
  edges_ = groups_.overlay_edges();
  push_snapshot();
}

void DosOverlay::push_snapshot() {
  sim::TopologySnapshot snap;
  snap.round = round_;
  snap.nodes = groups_.all_nodes();
  snap.edges = edges_;
  snapshots_.push(std::move(snap));
}

void DosOverlay::advance_round(const Attack& attack,
                               std::uint64_t state_bits,
                               std::uint64_t extra_group_bits,
                               EpochReport& report) {
  const std::size_t n = groups_.size();
  sim::BlockedSet blocked;
  if (attack.adversary != nullptr) {
    const auto budget = static_cast<std::size_t>(
        attack.blocked_fraction * static_cast<double>(n));
    snapshots_.ensure_lateness_horizon(attack.lateness);
    const sim::StaleSnapshotView stale =
        sim::serve_stale(snapshots_, round_, attack.lateness);
    // The id space is public knowledge; the secret is the group structure.
    const auto universe = groups_.all_nodes();
    blocked = attack.adversary->choose(stale, universe, budget, round_);
    // Round-boundary audit: an r-bounded adversary must respect its budget
    // and may only block existing nodes (Section 1.1).
    if (audit::enabled()) {
      audit::enforce(
          audit::check_blocked_budget(blocked, budget, universe));
    }
  }

  std::uint64_t max_bits = 0;
  for (std::uint64_t x = 0; x < groups_.supernodes(); ++x) {
    const auto& members = groups_.group(x);
    const auto g = members.size();
    std::size_t available = 0;
    for (sim::NodeId node : members) {
      // Available in round i: non-blocked in rounds i-1 and i (it can both
      // receive the previous round's messages and act now).
      if (!blocked.contains(node) && !blocked_prev_.contains(node)) {
        ++available;
      }
    }
    if (available == 0) ++report.silenced_group_rounds;
    report.min_available_fraction =
        std::min(report.min_available_fraction,
                 static_cast<double>(available) / static_cast<double>(g));
    // Communication work: every available node broadcasts the supernode
    // state S(x) to all |R(x)| members and receives the broadcasts of the
    // other available members; during synchronization rounds it additionally
    // relays the supernode's outgoing messages (extra_group_bits).
    const std::uint64_t per_node_bits =
        (static_cast<std::uint64_t>(g) + available) * state_bits +
        extra_group_bits;
    max_bits = std::max(max_bits, per_node_bits);
  }
  report.max_node_bits_per_round =
      std::max(report.max_node_bits_per_round, max_bits);

  // Connectivity of the overlay restricted to non-blocked nodes.
  if (!graph::is_connected_excluding(groups_.all_nodes(), edges_, blocked)) {
    ++report.disconnected_rounds;
  }

  blocked_prev_ = std::move(blocked);
  ++round_;
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

  // S(x) carries the sampler state: every block entry is a supernode label
  // plus references to that supernode's representatives.
  auto state_bits = [&](const auto& cores) -> std::uint64_t {
    std::size_t entries = 0;
    for (int j = 1; j <= d; ++j) entries += cores[0].block(j).size();
    const double per_entry =
        static_cast<double>(d) + avg_group * static_cast<double>(kIdBits);
    return 16 +
           static_cast<std::uint64_t>(static_cast<double>(entries) *
                                      per_entry) +
           static_cast<std::uint64_t>(avg_group) * kIdBits;
  };

  // Each primitive round is a simulation round plus a synchronization round
  // in which the group also relays the supernode's outgoing messages.
  auto epoch_rng = rng_.split(static_cast<std::uint64_t>(round_) + 3);
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
        advance_round(attack, state_bits(cores), extra, report);
      },
      kNoLoss);

  // Final reorganization phase: four rounds of group-to-group traffic
  // (assignments out, new groups gathered, neighbor groups exchanged, new
  // views delivered).
  {
    const auto reorg_bits = static_cast<std::uint64_t>(
        avg_group * avg_group * static_cast<double>(d + 1) *
        static_cast<double>(kIdBits));
    for (int r = 0; r < 4; ++r) {
      advance_round(attack, state_bits(sampled.cores), reorg_bits, report);
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

  edges_ = groups_.overlay_edges();
  // Epoch-boundary audit (Section 5): the rebuilt groups partition the node
  // set with Theta(log n) representatives each, and the overlay edge list is
  // a well-formed undirected graph.
  if (audit::enabled()) {
    auto violations = audit::check_group_table(groups_, config_.group_c);
    for (auto& violation :
         audit::check_edge_symmetry(groups_.all_nodes(), edges_)) {
      // reconfnet-hotcheck: allow(RNH404) audit-only path, sizes unknowable
      violations.push_back(std::move(violation));
    }
    audit::enforce(std::move(violations));
  }
  push_snapshot();

  report.success = report.disconnected_rounds == 0;
  if (!report.success) report.failure_reason = "disconnected";
  report.reorganized = true;
  report.min_group_size = groups_.min_group_size();
  report.max_group_size = groups_.max_group_size();
  return report;
}

}  // namespace reconfnet::dos
