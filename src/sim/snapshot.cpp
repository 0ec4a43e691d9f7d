#include "sim/snapshot.hpp"

#include <algorithm>

namespace reconfnet::sim {
namespace {

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * byte)));
  }
}

}  // namespace

std::vector<std::uint8_t> serialize(const TopologySnapshot& snapshot) {
  std::vector<std::uint8_t> out;
  out.reserve(8 * (3 + snapshot.nodes.size() + 2 * snapshot.edges.size()));
  append_u64(out, static_cast<std::uint64_t>(snapshot.round));
  append_u64(out, snapshot.nodes.size());
  for (NodeId node : snapshot.nodes) append_u64(out, node);
  append_u64(out, snapshot.edges.size());
  for (const auto& [a, b] : snapshot.edges) {
    append_u64(out, a);
    append_u64(out, b);
  }
  return out;
}

void SnapshotBuffer::ensure_lateness_horizon(Round lateness) {
  if (lateness > horizon_) horizon_ = lateness;
}

void SnapshotBuffer::push(TopologySnapshot snapshot) {
  buffer_.push_back(std::move(snapshot));
  // The front may go once the snapshot behind it is old enough to serve
  // stale_view(newest - horizon) itself.
  const Round boundary = buffer_.back().round - horizon_;
  while (buffer_.size() > 1 && buffer_[1].round <= boundary) {
    buffer_.pop_front();
  }
}

const TopologySnapshot* SnapshotBuffer::stale_view(Round round) const {
  // Snapshots are pushed in ascending round order; find the last one with
  // snapshot.round <= round.
  auto it = std::upper_bound(
      buffer_.begin(), buffer_.end(), round,
      [](Round r, const TopologySnapshot& snap) { return r < snap.round; });
  if (it == buffer_.begin()) return nullptr;
  return &*std::prev(it);
}

}  // namespace reconfnet::sim
