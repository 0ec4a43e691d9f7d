// Topology snapshots for t-late DoS adversaries (Section 1.1). The adversary
// may only see the overlay's topology — never node state or message contents —
// and only as it was at least t rounds ago. The simulator records a snapshot
// per round and serves the adversary the freshest snapshot that is old enough.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace reconfnet::sim {

/// What a DoS adversary is allowed to observe: the node set and the edge set
/// of the overlay graph at some round. Edges are undirected and deduplicated.
struct TopologySnapshot {
  Round round = 0;
  std::vector<NodeId> nodes;
  std::vector<std::pair<NodeId, NodeId>> edges;
};

/// Canonical little-endian byte encoding of a snapshot (round, then
/// length-prefixed node and edge lists). Two runs of a deterministic
/// simulation from the same master seed must produce byte-identical
/// serializations — this is what the reproducibility tests compare.
[[nodiscard]] std::vector<std::uint8_t> serialize(
    const TopologySnapshot& snapshot);

/// The snapshots a t-late adversary can still be served, in round order.
///
/// Retention policy (pinned in tools/oraclecheck/oracle.toml): the buffer
/// keeps snapshots only back to the lateness horizon. push() drops the front
/// snapshot while the one behind it is at or before newest - horizon, so the
/// front is always the freshest snapshot that stale_view(newest - t) serves
/// a t-late adversary with t <= horizon, and with one push per round the
/// buffer holds at most horizon + 1 snapshots. Without an attack the horizon
/// is 0 and only the newest snapshot stays. An adversary whose lateness
/// exceeds the horizon at the time of a push may later find no snapshot old
/// enough and is served an empty view, never a fresher one.
class SnapshotBuffer {
 public:
  void push(TopologySnapshot snapshot);

  /// The freshest snapshot taken at or before `round`, or nullptr if none is
  /// retained that old. A t-late adversary acting at round r is served
  /// stale_view(r - t).
  [[nodiscard]] const TopologySnapshot* stale_view(Round round) const;

  /// The most recent snapshot, or nullptr if none was pushed yet.
  [[nodiscard]] const TopologySnapshot* latest() const {
    return buffer_.empty() ? nullptr : &buffer_.back();
  }

  /// Raises the lateness horizon to at least `lateness` rounds: from now on
  /// push() keeps whatever snapshot stale_view(newest - lateness) needs.
  /// Harnesses call this when an attack's lateness is configured; the horizon
  /// only ever grows (the strongest adversary seen pins the history).
  void ensure_lateness_horizon(Round lateness);

  [[nodiscard]] Round lateness_horizon() const { return horizon_; }

  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  Round horizon_ = 0;
  std::deque<TopologySnapshot> buffer_;  // ascending round order
};

}  // namespace reconfnet::sim
