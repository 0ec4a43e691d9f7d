#include "audit/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <unordered_set>

#include "combined/split_merge.hpp"
#include "dos/group_table.hpp"
#include "graph/hgraph.hpp"
#include "sim/metrics.hpp"
#include "support/sorted.hpp"

namespace reconfnet::audit {
namespace {

/// Checkers stop accumulating after this many violations; a corrupted
/// structure usually violates the same invariant everywhere and the first few
/// reports carry all the signal.
constexpr std::size_t kMaxViolations = 16;

void add(std::vector<Violation>& out, std::string check, std::string detail) {
  if (out.size() < kMaxViolations) {
    out.push_back({std::move(check), std::move(detail)});
  }
}

}  // namespace

std::vector<Violation> check_hamilton_cycles(
    std::size_t n, const std::vector<std::vector<std::size_t>>& successors) {
  std::vector<Violation> out;
  for (std::size_t c = 0; c < successors.size(); ++c) {
    const auto& succ = successors[c];
    const std::string cycle_name = "cycle " + std::to_string(c);
    if (succ.size() != n) {
      add(out, "hgraph.cycle",
          cycle_name + " has " + std::to_string(succ.size()) +
              " entries, expected " + std::to_string(n));
      continue;
    }
    std::vector<char> target_seen(n, 0);
    bool well_formed = true;
    for (std::size_t v = 0; v < n; ++v) {
      if (succ[v] >= n) {
        add(out, "hgraph.cycle",
            cycle_name + ": succ(" + std::to_string(v) + ") = " +
                std::to_string(succ[v]) + " is out of range");
        well_formed = false;
        break;
      }
      if (target_seen[succ[v]] != 0) {
        add(out, "hgraph.cycle",
            cycle_name + ": vertex " + std::to_string(succ[v]) +
                " has two predecessors (not a permutation)");
        well_formed = false;
        break;
      }
      target_seen[succ[v]] = 1;
    }
    if (!well_formed || n == 0) continue;
    // A permutation is a single n-cycle iff the orbit of vertex 0 has size n.
    std::size_t v = 0;
    std::size_t steps = 0;
    do {
      v = succ[v];
      ++steps;
    } while (v != 0 && steps <= n);
    if (steps != n) {
      add(out, "hgraph.cycle",
          cycle_name + ": orbit of vertex 0 has length " +
              std::to_string(steps) + ", expected a single " +
              std::to_string(n) + "-cycle");
    }
  }
  return out;
}

std::vector<Violation> check_hgraph(const graph::HGraph& graph,
                                    int expected_degree) {
  std::vector<Violation> out;
  const std::size_t n = graph.size();
  if (graph.degree() != expected_degree) {
    add(out, "hgraph.degree",
        "degree is " + std::to_string(graph.degree()) + ", expected " +
            std::to_string(expected_degree));
  }
  if (graph.degree() != 2 * graph.num_cycles()) {
    add(out, "hgraph.degree",
        "degree " + std::to_string(graph.degree()) + " != 2 * " +
            std::to_string(graph.num_cycles()) + " cycles");
  }
  std::vector<std::vector<std::size_t>> successors(
      static_cast<std::size_t>(graph.num_cycles()));
  for (int c = 0; c < graph.num_cycles(); ++c) {
    auto& succ = successors[static_cast<std::size_t>(c)];
    succ.resize(n);
    for (std::size_t v = 0; v < n; ++v) succ[v] = graph.succ(c, v);
  }
  for (auto& violation : check_hamilton_cycles(n, successors)) {
    add(out, violation.check, std::move(violation.detail));
  }
  // Edge symmetry of the oriented cycles: pred must invert succ.
  for (int c = 0; c < graph.num_cycles(); ++c) {
    for (std::size_t v = 0; v < n; ++v) {
      if (graph.pred(c, graph.succ(c, v)) != v) {
        add(out, "hgraph.symmetry",
            "cycle " + std::to_string(c) + ": pred(succ(" +
                std::to_string(v) + ")) != " + std::to_string(v));
      }
    }
  }
  return out;
}

std::vector<Violation> check_edge_symmetry(
    std::span<const sim::NodeId> nodes,
    std::span<const std::pair<sim::NodeId, sim::NodeId>> edges) {
  std::vector<Violation> out;
  const std::unordered_set<sim::NodeId> node_set(nodes.begin(), nodes.end());
  std::set<std::pair<sim::NodeId, sim::NodeId>> seen;
  for (const auto& [a, b] : edges) {
    if (a == b) {
      add(out, "edges.self_loop",
          "self-loop at node " + std::to_string(a));
      continue;
    }
    if (!node_set.contains(a) || !node_set.contains(b)) {
      add(out, "edges.dangling",
          "edge (" + std::to_string(a) + ", " + std::to_string(b) +
              ") references a node outside the overlay");
      continue;
    }
    const std::pair<sim::NodeId, sim::NodeId> key = std::minmax(a, b);
    if (!seen.insert(key).second) {
      add(out, "edges.duplicate",
          "edge {" + std::to_string(key.first) + ", " +
              std::to_string(key.second) +
              "} listed twice in an undirected edge list");
    }
  }
  return out;
}

std::vector<Violation> check_group_partition(
    const std::vector<std::vector<sim::NodeId>>& groups,
    std::size_t expected_total) {
  std::vector<Violation> out;
  std::unordered_set<sim::NodeId> seen;
  std::size_t total = 0;
  for (std::size_t x = 0; x < groups.size(); ++x) {
    if (groups[x].empty()) {
      add(out, "groups.empty",
          "group " + std::to_string(x) + " has no representatives");
    }
    for (sim::NodeId node : groups[x]) {
      ++total;
      if (!seen.insert(node).second) {
        add(out, "groups.duplicate",
            "node " + std::to_string(node) +
                " appears in more than one group");
      }
    }
  }
  if (total != expected_total) {
    add(out, "groups.partition",
        "groups hold " + std::to_string(total) + " placements, expected " +
            std::to_string(expected_total));
  }
  return out;
}

std::vector<Violation> check_group_size_bounds(
    const std::vector<std::vector<sim::NodeId>>& groups,
    std::size_t total_nodes, double lo_factor, double hi_factor) {
  std::vector<Violation> out;
  if (total_nodes < 2) return out;
  const double log_n = std::log2(static_cast<double>(total_nodes));
  const double lo = lo_factor * log_n;
  const double hi = hi_factor * log_n;
  for (std::size_t x = 0; x < groups.size(); ++x) {
    const auto size = static_cast<double>(groups[x].size());
    if (size < lo || size > hi) {
      add(out, "groups.size",
          "group " + std::to_string(x) + " has " +
              std::to_string(groups[x].size()) +
              " representatives, outside [" + std::to_string(lo) + ", " +
              std::to_string(hi) + "] = [lo, hi] * log2 n");
    }
  }
  return out;
}

std::vector<Violation> check_group_table(const dos::GroupTable& groups,
                                         double gamma, int arity) {
  std::vector<std::vector<sim::NodeId>> raw;
  raw.reserve(groups.supernodes());
  for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
    raw.push_back(groups.group(x));
  }
  auto out = check_group_partition(raw, groups.size());
  for (auto& violation : check_group_size_bounds(
           raw, groups.size(), gamma * kGroupSizeLoFactor,
           gamma * kGroupSizeHiFactor * arity / 2)) {
    if (out.size() < kMaxViolations) out.push_back(std::move(violation));
  }
  return out;
}

std::vector<Violation> check_complete_code(
    const std::vector<combined::Label>& labels) {
  std::vector<Violation> out;
  if (labels.empty()) {
    add(out, "labels.complete", "no live supernode labels");
    return out;
  }
  int max_length = 0;
  for (const auto& label : labels) {
    max_length = std::max(max_length, label.length);
  }
  // Prefix-freeness (duplicates are prefixes of themselves).
  for (std::size_t i = 0; i < labels.size(); ++i) {
    for (std::size_t j = 0; j < labels.size(); ++j) {
      if (i == j) continue;
      if (labels[i].is_prefix_of(labels[j])) {
        add(out, "labels.prefix",
            "label " + labels[i].to_string() + " is a prefix of " +
                labels[j].to_string());
      }
    }
  }
  // Completeness via the Kraft sum: sum over labels of 2^{-d(x)} must be
  // exactly 1, i.e. sum of 2^{max - d(x)} == 2^max in integers.
  const auto full = std::uint64_t{1} << max_length;
  std::uint64_t kraft = 0;
  bool overflow = false;
  for (const auto& label : labels) {
    const auto term = std::uint64_t{1} << (max_length - label.length);
    if (kraft > full - term) {
      overflow = true;
      break;
    }
    kraft += term;
  }
  if (overflow || kraft != full) {
    add(out, "labels.complete",
        "Kraft sum of the live labels is " +
            (overflow ? std::string("> 1") : std::to_string(kraft) + "/" +
                                                 std::to_string(full)) +
            ", expected exactly 1 (labels must be the leaves of a full "
            "binary tree)");
  }
  return out;
}

std::vector<Violation> check_equation1(const combined::SuperGroups& super,
                                       double c) {
  std::vector<Violation> out;
  for (const auto& [key, entry] : super.groups()) {
    const auto& [label, members] = entry;
    const double d = label.dimension();
    const auto size = static_cast<double>(members.size());
    // enforce() splits only when |R| > 2cd and merges only when |R| < cd - c,
    // so healthy groups may rest exactly on either boundary of Equation (1);
    // the audited envelope is therefore the closed interval.
    if (!(c * d - c <= size && size <= 2.0 * c * d)) {
      add(out, "supergroups.equation1",
          "supernode " + label.to_string() + " (d=" +
              std::to_string(label.dimension()) + ") has " +
              std::to_string(members.size()) +
              " representatives, outside the Equation (1) envelope "
              "[c*d - c, 2*c*d] with c=" +
              std::to_string(c));
    }
  }
  return out;
}

std::vector<Violation> check_supergroups(const combined::SuperGroups& super,
                                         double c) {
  std::vector<Violation> out;
  std::vector<combined::Label> labels;
  std::vector<std::vector<sim::NodeId>> raw;
  labels.reserve(super.supernode_count());
  raw.reserve(super.supernode_count());
  for (const auto& [key, entry] : super.groups()) {
    labels.push_back(entry.first);
    raw.push_back(entry.second);
  }
  for (auto& violation : check_complete_code(labels)) {
    add(out, violation.check, std::move(violation.detail));
  }
  for (auto& violation : check_group_partition(raw, super.node_count())) {
    add(out, violation.check, std::move(violation.detail));
  }
  for (auto& violation : check_equation1(super, c)) {
    add(out, violation.check, std::move(violation.detail));
  }
  return out;
}

std::vector<Violation> check_round_conservation(const sim::RoundWork& round) {
  std::vector<Violation> out;
  const std::string prefix = "round " + std::to_string(round.round) + ": ";
  // Messages entering this round boundary: handed to the bus this round,
  // created by the fault hook as duplicates, or released from the delay
  // queue. Deliveries beyond that total are phantoms.
  const std::uint64_t entered = round.sent_messages +
                                round.duplicated_messages +
                                round.released_messages;
  if (round.total_messages > entered) {
    add(out, "bus.conservation",
        prefix + std::to_string(round.total_messages) +
            " messages delivered but only " + std::to_string(entered) +
            " entered the round (sent + duplicated + released)");
  }
  if (round.total_messages + round.dropped_messages + round.injected_drops +
          round.deferred_messages !=
      entered) {
    add(out, "bus.conservation",
        prefix + "delivered (" + std::to_string(round.total_messages) +
            ") + dropped (" + std::to_string(round.dropped_messages) +
            ") + injected drops (" + std::to_string(round.injected_drops) +
            ") + deferred (" + std::to_string(round.deferred_messages) +
            ") != sent (" + std::to_string(round.sent_messages) +
            ") + duplicated (" + std::to_string(round.duplicated_messages) +
            ") + released (" + std::to_string(round.released_messages) + ")");
  }
  return out;
}

std::vector<Violation> check_bus_conservation(const sim::WorkMeter& meter) {
  std::vector<Violation> out;
  for (const auto& round : meter.history()) {
    for (auto& violation : check_round_conservation(round)) {
      add(out, violation.check, std::move(violation.detail));
    }
    if (out.size() >= kMaxViolations) break;
  }
  return out;
}

std::vector<Violation> check_at_most_once(std::span<const DeliveryRecord> log) {
  std::vector<Violation> out;
  // (receiver, seq) pairs in delivery order; within one channel the sequence
  // number is globally unique, so a repeat means dedup failed.
  std::set<std::pair<sim::NodeId, std::uint64_t>> seen;
  for (const auto& record : log) {
    if (!seen.insert({record.receiver, record.seq}).second) {
      add(out, "fault.at_most_once",
          "receiver " + std::to_string(record.receiver) +
              " accepted sequence number " + std::to_string(record.seq) +
              " (from " + std::to_string(record.sender) + ") twice");
      if (out.size() >= kMaxViolations) break;
    }
  }
  return out;
}

std::vector<Violation> check_blocking_rule(
    sim::NodeId from, sim::NodeId to, const sim::BlockedSet& blocked_sending,
    const sim::BlockedSet& blocked_delivery) {
  std::vector<Violation> out;
  if (blocked_sending.contains(from)) {
    add(out, "bus.blocking",
        "message from " + std::to_string(from) +
            " delivered although the sender was blocked in the sending "
            "round");
  }
  if (blocked_sending.contains(to)) {
    add(out, "bus.blocking",
        "message to " + std::to_string(to) +
            " delivered although the receiver was blocked in the sending "
            "round");
  }
  if (blocked_delivery.contains(to)) {
    add(out, "bus.blocking",
        "message to " + std::to_string(to) +
            " delivered although the receiver was blocked in the delivery "
            "round");
  }
  return out;
}

std::vector<Violation> check_blocked_budget(
    const sim::BlockedSet& blocked, std::size_t budget,
    std::span<const sim::NodeId> universe) {
  const std::unordered_set<sim::NodeId> known(universe.begin(),
                                              universe.end());
  return check_blocked_budget(blocked, budget, [&known](sim::NodeId node) {
    return known.contains(node);
  });
}

std::vector<Violation> check_blocked_budget(
    const sim::BlockedSet& blocked, std::size_t budget,
    const std::function<bool(sim::NodeId)>& known) {
  std::vector<Violation> out;
  if (blocked.size() > budget) {
    add(out, "adversary.budget",
        "adversary blocked " + std::to_string(blocked.size()) +
            " nodes, exceeding its budget of " + std::to_string(budget));
  }
  // sorted_ids() so the reported node (and thus the AuditError text) is the
  // same on every standard library, not whichever bucket comes first.
  for (sim::NodeId node : blocked.sorted_ids()) {
    if (!known(node)) {
      add(out, "adversary.budget",
          "adversary blocked node " + std::to_string(node) +
              ", which was never a member of the overlay");
      break;
    }
  }
  return out;
}

std::vector<Violation> check_adversary_lateness(sim::Round now,
                                                sim::Round snapshot_round,
                                                sim::Round lateness) {
  std::vector<Violation> out;
  if (now - snapshot_round < lateness) {
    add(out, "adversary.lateness",
        "adversary acting at round " + std::to_string(now) +
            " read a snapshot from round " + std::to_string(snapshot_round) +
            " (only " + std::to_string(now - snapshot_round) +
            " rounds stale), violating the configured lateness t=" +
            std::to_string(lateness));
  }
  return out;
}

std::vector<Violation> check_request_conservation(std::uint64_t issued,
                                                  std::uint64_t completed,
                                                  std::uint64_t failed,
                                                  std::uint64_t in_flight) {
  std::vector<Violation> out;
  if (issued != completed + failed + in_flight) {
    add(out, "workload.conservation",
        "request accounting broken: issued " + std::to_string(issued) +
            " != completed " + std::to_string(completed) + " + failed " +
            std::to_string(failed) + " + in-flight " +
            std::to_string(in_flight));
  }
  return out;
}

}  // namespace reconfnet::audit
