#include "adversary/dos.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace reconfnet::adversary {
namespace {

/// Node and adjacency data pulled out of the audited view in one pass, so a
/// strategy pays one logged nodes() read and one logged edges() read per
/// decision instead of one per loop iteration.
struct StaleTopology {
  std::vector<sim::NodeId> nodes;
  std::unordered_map<sim::NodeId, std::vector<sim::NodeId>> adj;
};

/// Adjacency lists of the stale view, deduplicated.
StaleTopology adjacency(const sim::StaleSnapshotView& stale) {
  StaleTopology topo;
  topo.nodes.assign(stale.nodes().begin(), stale.nodes().end());
  std::unordered_map<sim::NodeId, std::unordered_set<sim::NodeId>> sets;
  for (sim::NodeId node : topo.nodes) sets[node];
  for (const auto& [a, b] : stale.edges()) {
    if (a == b) continue;
    sets[a].insert(b);
    sets[b].insert(a);
  }
  topo.adj.reserve(sets.size());
  // Walk the snapshot's node list (not the map) and sort each neighbor
  // list, so the adjacency vectors the strategies iterate are independent
  // of hash-bucket order.
  for (sim::NodeId node : topo.nodes) {
    const auto& nbrs = sets[node];
    std::vector<sim::NodeId> list(nbrs.begin(), nbrs.end());
    std::sort(list.begin(), list.end());
    topo.adj.emplace(node, std::move(list));
  }
  return topo;
}

bool has_nodes(const sim::StaleSnapshotView& stale) {
  return stale.has_snapshot() && !stale.nodes().empty();
}

/// Deterministic partition of the stale topology into apparent groups: scan
/// nodes in ascending id order and greedily collect each unassigned node with
/// every unassigned neighbor sharing at least 90% of its neighborhood (group
/// members are pairwise adjacent cliques in the grouped overlays). Singleton
/// "groups" are kept — against an ungrouped topology the partition degrades
/// to singletons and group wiping becomes plain blocking.
std::vector<std::vector<sim::NodeId>> apparent_groups(
    const StaleTopology& topo) {
  std::vector<sim::NodeId> order = topo.nodes;
  std::sort(order.begin(), order.end());
  std::unordered_set<sim::NodeId> assigned;
  std::vector<std::vector<sim::NodeId>> groups;
  for (sim::NodeId seed : order) {
    if (assigned.contains(seed)) continue;
    std::vector<sim::NodeId> group{seed};
    const auto it = topo.adj.find(seed);
    if (it != topo.adj.end() && !it->second.empty()) {
      const std::unordered_set<sim::NodeId> seed_nbrs(it->second.begin(),
                                                      it->second.end());
      for (sim::NodeId nbr : it->second) {
        if (assigned.contains(nbr)) continue;
        const auto nbr_it = topo.adj.find(nbr);
        if (nbr_it == topo.adj.end()) continue;
        std::size_t shared = 0;
        for (sim::NodeId x : nbr_it->second) {
          if (x == seed || seed_nbrs.contains(x)) ++shared;
        }
        if (10 * shared >= 9 * seed_nbrs.size()) group.push_back(nbr);
      }
    }
    for (sim::NodeId member : group) assigned.insert(member);
    std::sort(group.begin(), group.end());
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace

sim::BlockedSet RandomDos::choose(const sim::StaleSnapshotView& stale,
                                  std::span<const sim::NodeId> universe,
                                  std::size_t budget, sim::Round) {
  sim::BlockedSet blocked;
  std::vector<sim::NodeId> pool =
      has_nodes(stale)
          ? std::vector<sim::NodeId>(stale.nodes().begin(),
                                     stale.nodes().end())
          : std::vector<sim::NodeId>(universe.begin(), universe.end());
  if (pool.empty() || budget == 0) return blocked;
  rng_.shuffle(std::span<sim::NodeId>(pool));
  const std::size_t count = std::min(budget, pool.size());
  for (std::size_t i = 0; i < count; ++i) blocked.insert(pool[i]);
  return blocked;
}

sim::BlockedSet IsolationDos::choose(const sim::StaleSnapshotView& stale,
                                     std::span<const sim::NodeId> universe,
                                     std::size_t budget, sim::Round now) {
  // Without topology information the strategy degrades to blind random
  // blocking over the public id space.
  if (!has_nodes(stale)) {
    RandomDos fallback(rng_.split(static_cast<std::uint64_t>(now)));
    return fallback.choose(sim::StaleSnapshotView{}, universe, budget, now);
  }
  sim::BlockedSet blocked;
  if (budget == 0) return blocked;
  const StaleTopology topo = adjacency(stale);
  std::vector<sim::NodeId> candidates = topo.nodes;
  rng_.shuffle(std::span<sim::NodeId>(candidates));
  // Isolate victims: block every neighbor of a victim while leaving the
  // victim itself non-blocked — the paper's argument for why a topology-aware
  // adversary defeats any static overlay of degree below its budget.
  std::unordered_set<sim::NodeId> victims;
  for (sim::NodeId victim : candidates) {
    if (blocked.contains(victim)) continue;
    const auto it = topo.adj.find(victim);
    if (it == topo.adj.end() || it->second.empty()) continue;
    // The victim's neighbors must all fit in the remaining budget and must
    // not include an earlier victim (that would un-isolate it).
    std::size_t fresh = 0;
    bool clashes = false;
    for (sim::NodeId nbr : it->second) {
      if (victims.contains(nbr)) {
        clashes = true;
        break;
      }
      if (!blocked.contains(nbr)) ++fresh;
    }
    if (clashes || blocked.size() + fresh > budget) continue;
    victims.insert(victim);
    for (sim::NodeId nbr : it->second) blocked.insert(nbr);
    if (blocked.size() >= budget) break;
  }
  // Spend leftover budget on random non-victim nodes for maximum pressure.
  for (sim::NodeId node : candidates) {
    if (blocked.size() >= budget) break;
    if (!victims.contains(node)) blocked.insert(node);
  }
  return blocked;
}

sim::BlockedSet GroupWipeDos::choose(const sim::StaleSnapshotView& stale,
                                     std::span<const sim::NodeId> universe,
                                     std::size_t budget, sim::Round now) {
  if (!has_nodes(stale)) {
    RandomDos fallback(rng_.split(static_cast<std::uint64_t>(now)));
    return fallback.choose(sim::StaleSnapshotView{}, universe, budget, now);
  }
  sim::BlockedSet blocked;
  if (budget == 0) return blocked;
  const StaleTopology topo = adjacency(stale);
  std::vector<sim::NodeId> victim_order = topo.nodes;
  rng_.shuffle(std::span<sim::NodeId>(victim_order));
  for (sim::NodeId victim : victim_order) {
    if (blocked.contains(victim)) continue;
    const auto it = topo.adj.find(victim);
    if (it == topo.adj.end()) continue;
    const std::unordered_set<sim::NodeId> victim_nbrs(it->second.begin(),
                                                      it->second.end());
    // The victim's group = victim + neighbors sharing most of its
    // neighborhood (group members are pairwise adjacent in the snapshot).
    std::vector<sim::NodeId> clique{victim};
    for (sim::NodeId nbr : it->second) {
      const auto nbr_it = topo.adj.find(nbr);
      if (nbr_it == topo.adj.end()) continue;
      std::size_t shared = 0;
      for (sim::NodeId x : nbr_it->second) {
        if (x == victim || victim_nbrs.contains(x)) ++shared;
      }
      if (10 * shared >= 9 * victim_nbrs.size()) clique.push_back(nbr);
    }
    if (blocked.size() + clique.size() > budget) continue;
    for (sim::NodeId member : clique) blocked.insert(member);
    if (blocked.size() >= budget) break;
  }
  for (sim::NodeId node : victim_order) {
    if (blocked.size() >= budget) break;
    blocked.insert(node);
  }
  return blocked;
}

sim::BlockedSet AdaptiveDos::choose(const sim::StaleSnapshotView& stale,
                                    std::span<const sim::NodeId> universe,
                                    std::size_t budget, sim::Round now) {
  if (!has_nodes(stale)) {
    RandomDos fallback(rng_.split(static_cast<std::uint64_t>(now)));
    return fallback.choose(sim::StaleSnapshotView{}, universe, budget, now);
  }
  sim::BlockedSet blocked;
  if (budget == 0) return blocked;
  const StaleTopology topo = adjacency(stale);
  const sim::Round snapshot_round = stale.round();
  const bool new_snapshot = snapshot_round != last_snapshot_round_;
  std::vector<std::vector<sim::NodeId>> groups = apparent_groups(topo);

  if (new_snapshot && !attacked_groups_.empty()) {
    // Feedback step: of the groups we wiped at the previous snapshot, how
    // many still exist in this one? A previously attacked group "persists" if
    // some current group contains a strict majority of its members. This uses
    // only the adversary's own past output and the new stale view — the
    // legitimate learning channel of the model.
    std::unordered_map<sim::NodeId, std::size_t> group_of;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      for (sim::NodeId member : groups[g]) group_of.emplace(member, g);
    }
    std::size_t persisted = 0;
    for (const auto& old_group : attacked_groups_) {
      std::unordered_map<std::size_t, std::size_t> votes;
      std::size_t best = 0;
      for (sim::NodeId member : old_group) {
        const auto it = group_of.find(member);
        if (it == group_of.end()) continue;
        best = std::max(best, ++votes[it->second]);
      }
      if (2 * best > old_group.size()) ++persisted;
    }
    const double sample =
        static_cast<double>(persisted) /
        static_cast<double>(attacked_groups_.size());
    persistence_ = 0.5 * persistence_ + 0.5 * sample;
  }
  if (new_snapshot) {
    last_snapshot_round_ = snapshot_round;
    attacked_groups_.clear();
  }

  // Spend a persistence-weighted share of the budget on group wipes, smallest
  // groups first (cheapest whole-group kills), and the remainder on random
  // pressure. Ties break on the smallest member id so the plan is a pure
  // function of (stale view, own state).
  const auto targeted = static_cast<std::size_t>(
      std::llround(persistence_ * static_cast<double>(budget)));
  std::sort(groups.begin(), groups.end(),
            [](const std::vector<sim::NodeId>& a,
               const std::vector<sim::NodeId>& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a.front() < b.front();
            });
  for (const auto& group : groups) {
    if (blocked.size() + group.size() > targeted) break;
    for (sim::NodeId member : group) blocked.insert(member);
    attacked_groups_.push_back(group);
  }
  std::vector<sim::NodeId> filler = topo.nodes;
  rng_.shuffle(std::span<sim::NodeId>(filler));
  for (sim::NodeId node : filler) {
    if (blocked.size() >= budget) break;
    blocked.insert(node);
  }
  return blocked;
}

}  // namespace reconfnet::adversary
