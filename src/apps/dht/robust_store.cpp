#include "apps/dht/robust_store.hpp"

#include <algorithm>

#include "support/rng.hpp"

namespace reconfnet::apps {

RobustStore::RobustStore(KaryGroupedOverlay* overlay) : overlay_(overlay) {}

std::uint64_t RobustStore::hash_key(Key key) {
  std::uint64_t state = key ^ 0xA0761D6478BD642FULL;
  return support::splitmix64(state);
}

std::uint64_t RobustStore::hypercube_home(Key key, int dimension) {
  return hash_key(key) & ((std::uint64_t{1} << dimension) - 1);
}

std::uint64_t RobustStore::home_supernode(Key key) const {
  return overlay_->supernode_of_key(hash_key(key));
}

std::optional<RobustStore::Value> RobustStore::peek(Key key) const {
  const auto shard = shards_.find(home_supernode(key));
  if (shard == shards_.end()) return std::nullopt;
  const auto record = shard->second.find(key);
  if (record == shard->second.end()) return std::nullopt;
  return record->second;
}

std::size_t RobustStore::record_count() const {
  std::size_t total = 0;
  // reconfnet-lint: allow(RNL005) commutative sum over shard sizes
  for (const auto& [supernode, shard] : shards_) total += shard.size();
  return total;
}

void RobustStore::deposit(Key key, Value value) {
  shards_[home_supernode(key)][key] = value;
}

bool RobustStore::route_to_home(
    std::uint64_t at, std::uint64_t home,
    std::span<const sim::BlockedSet> blocked_per_round, std::size_t& rounds,
    std::unordered_map<std::uint64_t, std::size_t>* congestion) const {
  const auto& cube = overlay_->cube();
  // Greedy digit-fixing route; hop h occupies pipeline round h.
  bool routed = true;
  std::size_t round = 0;
  if (congestion != nullptr) ++(*congestion)[at];
  if (!overlay_->group_available(at, round, blocked_per_round)) {
    routed = false;
  }
  while (routed && at != home) {
    std::uint64_t next = at;
    for (int digit = 0; digit < cube.dimension(); ++digit) {
      const int want = cube.digit(home, digit);
      if (cube.digit(at, digit) != want) {
        next = cube.with_digit(at, digit, want);
        break;
      }
    }
    ++round;
    if (congestion != nullptr) ++(*congestion)[next];
    if (!overlay_->group_available(next, round, blocked_per_round)) {
      routed = false;
      break;
    }
    at = next;
  }
  // One final round for the home group to serve the request.
  ++round;
  if (routed && !overlay_->group_available(home, round, blocked_per_round)) {
    routed = false;
  }
  rounds = round;
  return routed;
}

RobustStore::ServeResult RobustStore::serve_one(
    const Request& request, std::uint64_t entry_group,
    std::span<const sim::BlockedSet> blocked_per_round) {
  ServeResult result;
  const std::uint64_t home = home_supernode(request.key);
  std::size_t rounds = 0;
  result.ok =
      route_to_home(entry_group, home, blocked_per_round, rounds, nullptr);
  result.rounds = static_cast<sim::Round>(rounds);
  if (!result.ok) return result;
  if (request.is_write) {
    shards_[home][request.key] = request.value;
    return result;
  }
  const auto shard = shards_.find(home);
  if (shard != shards_.end()) {
    const auto record = shard->second.find(request.key);
    if (record != shard->second.end()) {
      result.found = true;
      result.value = record->second;
    }
  }
  return result;
}

RobustStore::BatchReport RobustStore::execute(
    std::span<const Request> requests,
    std::span<const sim::BlockedSet> blocked_per_round, support::Rng& rng) {
  BatchReport report;
  const auto& cube = overlay_->cube();
  std::unordered_map<std::uint64_t, std::size_t> congestion;

  for (const auto& request : requests) {
    (request.is_write ? report.writes : report.reads) += 1;
    // The request enters the overlay at a uniformly random group.
    const std::uint64_t at = rng.below(cube.size());
    const std::uint64_t home = home_supernode(request.key);
    std::size_t round = 0;
    const bool routed =
        route_to_home(at, home, blocked_per_round, round, &congestion);
    report.rounds = std::max(report.rounds, static_cast<sim::Round>(round));
    if (!routed) {
      ++report.routing_failures;
      continue;
    }
    if (request.is_write) {
      shards_[home][request.key] = request.value;
      ++report.write_ok;
    } else {
      const auto shard = shards_.find(home);
      const bool found = shard != shards_.end() &&
                         shard->second.contains(request.key);
      if (found) {
        ++report.read_ok;
      } else {
        ++report.not_found;
      }
    }
  }
  // reconfnet-lint: allow(RNL005) max-reduction; order cannot change the max
  for (const auto& [group, hops] : congestion) {
    report.max_group_congestion = std::max(report.max_group_congestion, hops);
  }
  return report;
}

KaryGroupedOverlay::EpochReport RobustStore::reconfigure(
    const dos::Attack& attack) {
  // Shards are keyed by supernode and replicated across the (changing) home
  // group, so a successful epoch hands every record to the new group along
  // with the reorganization messages; a failed epoch keeps the old groups
  // and the old replicas.
  return overlay_->run_epoch(attack);
}

}  // namespace reconfnet::apps
