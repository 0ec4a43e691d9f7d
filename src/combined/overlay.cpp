#include "combined/overlay.hpp"

#include <algorithm>
#include <cmath>
#include <ranges>
#include <stdexcept>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "dos/group_epoch.hpp"
#include "graph/connectivity.hpp"
#include "sim/stale_view.hpp"

namespace reconfnet::combined {

int CombinedOverlay::initial_dimension(std::size_t n, double group_c) {
  // Lemma 18: the unique d with 2^d * 2cd < n <= 2^{d+1} * 2c(d+1).
  for (int d = 1; d < 30; ++d) {
    const double low = std::ldexp(2.0 * group_c * d, d);
    const double high = std::ldexp(2.0 * group_c * (d + 1), d + 1);
    if (low < static_cast<double>(n) && static_cast<double>(n) <= high) {
      return d;
    }
  }
  return 1;
}

SuperGroups CombinedOverlay::bootstrap(const Config& config,
                                       support::Rng& rng,
                                       sim::IdAllocator& ids) {
  const int d = initial_dimension(config.initial_size, config.group_c);
  std::vector<sim::NodeId> nodes(config.initial_size);
  for (auto& node : nodes) node = ids.allocate();
  // A uniform assignment can leave rare outliers outside Equation (1); the
  // enforce pass immediately after construction repairs them.
  auto super =
      SuperGroups::uniform(d, dos::GroupTable::random(d, nodes, rng).groups());
  support::Rng enforce_rng = rng.split(42);
  super.enforce(config.group_c, enforce_rng);
  return super;
}

CombinedOverlay::CombinedOverlay(const Config& config)
    : config_(config),
      rng_(config.seed),
      super_(bootstrap(config, rng_, ids_)) {
  refresh_topology();
  rounds_.push_snapshot(members_, super_.overlay_edges());
}

void CombinedOverlay::refresh_topology() {
  members_ = super_.all_nodes();
  adjacency_ = super_.adjacency();
  churn_.set_members(members_);
}

void CombinedOverlay::crash(sim::NodeId node) {
  if (!churn_.is_member(node)) {
    throw std::invalid_argument("crash: node is not a member");
  }
  if (std::ranges::find(crashed_, node) != crashed_.end()) {
    throw std::invalid_argument("crash: node already crashed");
  }
  crashed_.push_back(node);
  // The group emulates the crashed node's departure: it is staged to leave
  // exactly like an announced leave, and it never communicates again.
  churn_.stage_leave(node);
}

void CombinedOverlay::advance_round(adversary::ChurnAdversary& churn,
                                    const dos::Attack& attack,
                                    std::uint64_t state_bits,
                                    EpochReport& report) {
  sim::BlockedSet& blocked =
      rounds_.block(attack, members_, [this](sim::NodeId node) {
        return churn_.was_admitted(node);
      });
  // Crashed members are silent forever, on top of any adversary budget.
  for (sim::NodeId node : crashed_) blocked.insert(node);

  const auto groups =
      super_.groups() | std::views::values | std::views::elements<1>;
  const std::uint64_t max_load = rounds_.tally(groups, report);
  report.max_node_bits_per_round =
      std::max(report.max_node_bits_per_round, max_load * state_bits);

  if (!graph::groups_connected_excluding(groups, adjacency_, blocked)) {
    ++report.disconnected_rounds;
  }

  churn_.poll(churn, round(), members_, ids_);
  rounds_.end_round();
  ++report.rounds;
}

CombinedOverlay::EpochReport CombinedOverlay::run_epoch(
    adversary::ChurnAdversary& churn, const dos::Attack& attack) {
  EpochReport report;

  // The staged churn is this epoch's.
  churn_.begin_epoch();

  // Classes: the supernodes projected onto the common prefix d_min. Every
  // class is simulated by the union of its groups.
  const int d_min = super_.min_dimension();
  const std::uint64_t class_count = std::uint64_t{1} << d_min;
  std::vector<std::vector<sim::NodeId>> class_members(class_count);
  for (const auto& [key, entry] : super_.groups()) {
    const auto& [label, members] = entry;
    auto& bucket = class_members[label.prefix(d_min).bits];
    for (sim::NodeId node : members) {
      if (churn_.leaving(node)) {
        ++report.leaves_applied;  // leavers participate but are not placed
      } else {
        // reconfnet-hotcheck: allow(RNH404) class sizes are churn-dependent;
        // buckets are built once per epoch, not per round
        bucket.push_back(node);
      }
      // A leaver still places the joiners that were introduced to it before
      // it was prescribed to leave (Section 4's rule carries over).
      for (const auto& join : churn_.joins_of(node)) {
        // reconfnet-hotcheck: allow(RNH404) once-per-epoch class assembly
        bucket.push_back(join.node);
        ++report.joins_applied;
      }
    }
  }
  std::size_t placed_total = 0;
  std::size_t max_class = 0;
  for (auto& bucket : class_members) {
    std::sort(bucket.begin(), bucket.end());
    placed_total += bucket.size();
    max_class = std::max(max_class, bucket.size());
  }

  // The report's closing fields, on success and failure alike.
  auto finish = [&] {
    report.min_dimension = super_.min_dimension();
    report.max_dimension = super_.max_dimension();
    report.members_after = super_.node_count();
    report.min_group_size = super_.min_group_size();
    report.max_group_size = super_.max_group_size();
    return report;
  };
  auto fail = [&](std::string reason) {
    report.success = false;
    report.failure_reason = std::move(reason);
    churn_.fail_epoch();  // no churn is lost
    return finish();
  };

  if (placed_total < 4) return fail("fewer than 4 nodes would remain");

  // Schedule over the class hypercube; every class needs enough samples for
  // all its placements.
  const int cube_dim = std::max(d_min, 1);
  const auto schedule = sampling::group_schedule(
      sampling::SizeEstimate::from_true_size(
          std::max<std::size_t>(placed_total, 4), config_.size_estimate_slack),
      cube_dim, max_class, config_.sampling);

  const double avg_group =
      static_cast<double>(super_.node_count()) /
      static_cast<double>(super_.supernode_count());
  auto state_bits = [&](const auto& cores) {
    return dos::supernode_state_bits(cores[0], avg_group);
  };

  auto epoch_rng = rng_.split(static_cast<std::uint64_t>(round()) + 5);
  const auto sampled = dos::sample_supernodes(
      cube_dim, class_count, schedule, epoch_rng,
      [&](int /*iteration*/, bool /*synchronization*/, const auto& cores) {
        advance_round(churn, attack, state_bits(cores), report);
      },
      dos::kNoLoss);
  const auto& cores = sampled.cores;

  // Refinement round: each sampled class vertex is extended to a concrete
  // supernode by the owning class (constant work), then four reorganization
  // rounds as in Section 5.
  for (int r = 0; r < 5; ++r) {
    advance_round(churn, attack, state_bits(cores), report);
  }

  if (report.silenced_group_rounds > 0) {
    return fail("a group was silenced");
  }
  if (sampled.dry_events > 0) return fail("class sampling ran dry");

  // Assignment: the i-th placement of class x goes to the supernode obtained
  // by refining the i-th sample of x. The table is keyed by prefix-code label
  // bits (sparse in the key space), built and consumed once per epoch.
  std::unordered_map<std::uint64_t, std::vector<sim::NodeId>> fresh;
  for (const auto& [key, entry] : super_.groups()) {
    // reconfnet-hotcheck: allow(RNH401, RNH403) once-per-epoch label remap
    fresh.emplace(key, std::vector<sim::NodeId>{});
  }
  for (std::uint64_t x = 0; x < class_count; ++x) {
    const auto& placements = class_members[x];
    const auto& samples = cores[x].samples();
    if (samples.size() < placements.size()) {
      return fail("too few samples for a class");
    }
    auto refine_rng = epoch_rng.split(0xF000 + x);
    for (std::size_t i = 0; i < placements.size(); ++i) {
      const std::uint64_t class_bits = samples[i];
      const Label target = super_.descend([&](int depth) {
        return depth < d_min
                   ? static_cast<int>((class_bits >> depth) & 1)
                   : (refine_rng.coin() ? 1 : 0);
      });
      // reconfnet-hotcheck: allow(RNH403) once-per-epoch label remap
      fresh[target.key()].push_back(placements[i]);
    }
  }
  std::vector<std::pair<Label, std::vector<sim::NodeId>>> fresh_groups;
  fresh_groups.reserve(fresh.size());
  for (const auto& [key, entry] : super_.groups()) {
    // reconfnet-hotcheck: allow(RNH403) once-per-epoch label remap
    auto it = fresh.find(key);
    fresh_groups.emplace_back(entry.first, std::move(it->second));
  }
  try {
    // A shrinking network can transiently empty a supernode; the enforce()
    // pass below merges it away.
    super_.reassign(fresh_groups, /*allow_empty=*/true);
  } catch (const std::runtime_error& error) {
    return fail(error.what());
  }

  // Split/merge maintenance (Equation (1)); a constant number of organized
  // rounds per Lemma 18 — we charge two overlay rounds per sweep.
  auto enforce_rng = epoch_rng.split(0xE000);
  try {
    report.split_merge = super_.enforce(config_.group_c, enforce_rng);
  } catch (const std::runtime_error& error) {
    refresh_topology();
    return fail(error.what());
  }
  // Membership and labels are final for this epoch.
  refresh_topology();
  if (super_.min_group_size() == 0) {
    return fail("split/merge left an empty supernode");
  }
  // The epoch's one edge list: the audit reads it, the snapshot keeps it.
  auto edges = super_.overlay_edges();
  // Epoch-boundary audit (Section 6): after split/merge maintenance the live
  // labels must form a complete prefix-free code, every supernode must
  // satisfy Equation (1), the groups must partition the members, and the
  // overlay edge list must be a well-formed undirected graph.
  if (audit::enabled()) {
    auto violations = audit::check_supergroups(super_, config_.group_c);
    for (auto& violation :
         audit::check_edge_symmetry(members_, edges)) {
      // reconfnet-hotcheck: allow(RNH404) audit-only path, sizes unknowable
      violations.push_back(std::move(violation));
    }
    audit::enforce(std::move(violations));
  }
  for (int r = 0; r < 2 * report.split_merge.sweeps; ++r) {
    advance_round(churn, attack, state_bits(cores), report);
  }
  rounds_.push_snapshot(members_, std::move(edges));

  // Delegate joins staged during this epoch whose sponsor just left.
  churn_.end_epoch(members_, rng_);
  // Crashed nodes that have now left the overlay need no further emulation.
  std::erase_if(crashed_, [this](sim::NodeId node) {
    return !churn_.is_member(node);
  });

  report.success = report.disconnected_rounds == 0;
  if (!report.success) report.failure_reason = "disconnected";
  report.reorganized = true;
  return finish();
}

}  // namespace reconfnet::combined
