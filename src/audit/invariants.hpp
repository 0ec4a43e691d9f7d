// Invariant checkers for the audit layer (see audit/audit.hpp). Every
// checker is a pure function from observable protocol state to the list of
// violations found, so the overlays can enforce them at round boundaries and
// tests can run them against deliberately corrupted inputs.
//
// The checks map directly onto the paper's guarantees:
//   - H-graph structure (Section 2.2, Algorithm 3): the topology is a union
//     of oriented Hamilton cycles with consistent successor/predecessor maps.
//   - Group-size bounds (Section 5): every supernode group holds Theta(log n)
//     representatives and the groups partition the node set.
//   - Supernode label consistency (Section 6): the live labels form a
//     complete prefix-free code and every group satisfies Equation (1).
//   - Bus conservation (Section 1.1): messages delivered never exceed
//     messages sent, dropped messages account for the difference, and the
//     DoS blocking rule is respected on every delivery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "combined/labels.hpp"
#include "sim/blocked.hpp"
#include "sim/types.hpp"

namespace reconfnet::graph {
class HGraph;
}
namespace reconfnet::dos {
class GroupTable;
}
namespace reconfnet::combined {
class SuperGroups;
}
namespace reconfnet::sim {
class WorkMeter;
struct RoundWork;
}  // namespace reconfnet::sim

namespace reconfnet::audit {

// --- H-graph structure (Section 2.2, Algorithm 3) --------------------------

/// Each successor map must be a permutation of {0,...,n-1} forming a single
/// n-cycle (an oriented Hamilton cycle).
[[nodiscard]] std::vector<Violation> check_hamilton_cycles(
    std::size_t n, const std::vector<std::vector<std::size_t>>& successors);

/// Full H-graph audit: degree() == 2 * num_cycles() == expected_degree, each
/// cycle is a Hamilton cycle, and pred is the inverse of succ on every cycle.
[[nodiscard]] std::vector<Violation> check_hgraph(const graph::HGraph& graph,
                                                  int expected_degree);

/// An undirected, deduplicated overlay edge list: no self-loops, no dangling
/// endpoints, and no edge listed twice (in either orientation).
[[nodiscard]] std::vector<Violation> check_edge_symmetry(
    std::span<const sim::NodeId> nodes,
    std::span<const std::pair<sim::NodeId, sim::NodeId>> edges);

// --- Supernode groups (Section 5) ------------------------------------------

/// The groups partition a node set of the expected size: every node appears
/// in exactly one group and no group is empty.
[[nodiscard]] std::vector<Violation> check_group_partition(
    const std::vector<std::vector<sim::NodeId>>& groups,
    std::size_t expected_total);

/// Every group size lies in [lo_factor * log2 n, hi_factor * log2 n] where n
/// is the total node count. The paper requires |R(x)| = Theta(gamma * log n)
/// (Section 5); because nodes are assigned to groups uniformly at random, the
/// audit checks the constant-factor envelope of the gamma * log n target, not
/// the exact [gamma log n, 2 gamma log n] ideal — callers pass a lo/hi with
/// enough slack for binomial fluctuation (see kGroupSizeLoFactor below).
[[nodiscard]] std::vector<Violation> check_group_size_bounds(
    const std::vector<std::vector<sim::NodeId>>& groups,
    std::size_t total_nodes, double lo_factor, double hi_factor);

/// Default slack envelope around the gamma * log2 n group-size target used
/// by the overlay hooks: a healthy uniform assignment concentrates within
/// these factors w.h.p. while genuinely degenerate tables fall outside.
inline constexpr double kGroupSizeLoFactor = 0.2;
inline constexpr double kGroupSizeHiFactor = 6.0;

/// Combined GroupTable audit: partition plus size bounds, with lo/hi scaled
/// by `gamma` (the overlay's group_c constant). The groups of a k-ary cube
/// average between gamma * log2 n and `arity` times that
/// (dos::choose_dimension), so hi also scales by arity / 2.
[[nodiscard]] std::vector<Violation> check_group_table(
    const dos::GroupTable& groups, double gamma, int arity = 2);

// --- Supernode labels and Equation (1) (Section 6) -------------------------

/// The labels form a complete prefix-free code: no label is a prefix of
/// another and the Kraft sum of 2^{-d(x)} is exactly 1 (equivalently, the
/// labels are the leaves of a full binary tree).
[[nodiscard]] std::vector<Violation> check_complete_code(
    const std::vector<combined::Label>& labels);

/// Equation (1) of Section 6 for every live supernode x. Audited as the
/// closed envelope c * d(x) - c <= |R(x)| <= 2 * c * d(x): enforce()'s
/// split/merge triggers are strict, so a healthy group may rest exactly on a
/// boundary (Lemma 18 keeps it inside the envelope from then on).
[[nodiscard]] std::vector<Violation> check_equation1(
    const combined::SuperGroups& super, double c);

/// Full split/merge consistency audit: complete code over the live labels,
/// Equation (1), non-empty groups, and node-set partitioning.
[[nodiscard]] std::vector<Violation> check_supergroups(
    const combined::SuperGroups& super, double c);

// --- Bus conservation (Section 1.1, extended for fault injection) ----------

/// Conservation for one finished round: every message entering the round
/// boundary (sent + hook-duplicated + released from the delay queue) is
/// delivered, dropped by the blocking rule, dropped by the fault hook, or
/// deferred — and deliveries never exceed the messages that entered. With the
/// fault counters at zero this is the paper's delivered + dropped == sent.
[[nodiscard]] std::vector<Violation> check_round_conservation(
    const sim::RoundWork& round);

/// Conservation over a meter's whole history.
[[nodiscard]] std::vector<Violation> check_bus_conservation(
    const sim::WorkMeter& meter);

/// The Section 1.1 blocking rule for one *delivered* message: the sender must
/// be non-blocked in the sending round and the receiver non-blocked in both
/// the sending and the delivery round. Takes BlockedSet (membership queries
/// only) so no caller has to expose raw unordered state.
[[nodiscard]] std::vector<Violation> check_blocking_rule(
    sim::NodeId from, sim::NodeId to, const sim::BlockedSet& blocked_sending,
    const sim::BlockedSet& blocked_delivery);

// --- Recovery-protocol contract (fault::ReliableChannel, DESIGN.md §10) ----

/// One accepted (post-deduplication) delivery of a reliable-channel message.
struct DeliveryRecord {
  sim::NodeId receiver = sim::kNoNode;
  sim::NodeId sender = sim::kNoNode;
  std::uint64_t seq = 0;  ///< channel-unique sequence number
};

/// At-most-once delivery under duplication + dedup: no sequence number is
/// accepted twice by the same receiver.
[[nodiscard]] std::vector<Violation> check_at_most_once(
    std::span<const DeliveryRecord> log);

// --- Adversary contract ----------------------------------------------------

/// An r-bounded adversary may never block more nodes than its budget, and
/// only nodes that exist (Section 1.1).
[[nodiscard]] std::vector<Violation> check_blocked_budget(
    const sim::BlockedSet& blocked, std::size_t budget,
    std::span<const sim::NodeId> universe);

/// Same contract with the known id space given as a test. Under churn a
/// t-late adversary legitimately targets ids from a stale snapshot that have
/// since left, so the combined overlay audits against the ids it ever
/// admitted (ids are never reused, Section 1.1) rather than the current
/// members.
[[nodiscard]] std::vector<Violation> check_blocked_budget(
    const sim::BlockedSet& blocked, std::size_t budget,
    const std::function<bool(sim::NodeId)>& known);

/// The Section 1.1 t-lateness contract: an adversary acting at round `now`
/// may only read snapshots at least `lateness` rounds stale, i.e.
/// now - snapshot_round >= lateness. Enforced on every snapshot read through
/// sim::StaleSnapshotView when audit::oracle_enabled() (RECONFNET_ORACLEAUDIT)
/// is set; the static half of the seam is reconfnet_oraclecheck.
[[nodiscard]] std::vector<Violation> check_adversary_lateness(
    sim::Round now, sim::Round snapshot_round, sim::Round lateness);

// --- Workload request conservation (DESIGN.md §12) --------------------------

/// Open-loop request accounting: every issued request is completed, failed,
/// or still in flight — issued == completed + failed + in_flight. The
/// workload driver enforces this at every round boundary, passing its
/// physical queue occupancy as `in_flight`, so a request leaked between the
/// queue and the tracker fails loudly instead of skewing the latency tail.
[[nodiscard]] std::vector<Violation> check_request_conservation(
    std::uint64_t issued, std::uint64_t completed, std::uint64_t failed,
    std::uint64_t in_flight);

}  // namespace reconfnet::audit
