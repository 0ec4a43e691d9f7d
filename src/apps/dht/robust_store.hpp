// RoBuSt-lite: a robust distributed storage layer (Section 7.2) over the
// reconfiguring k-ary grouped hypercube. Every key has a home supernode; its
// record is replicated across the home group (logarithmic redundancy).
// Requests are routed group-to-group by fixing one k-ary digit per hop;
// under DoS blocking a hop succeeds as long as the source and destination
// groups each keep an available representative — exactly the Section 5
// condition. The original RoBuSt [11] is a black box we substitute: this
// layer satisfies its external contract (serve any batch of reads/writes
// with O(1) requests per non-blocked server at polylog work) on top of our
// own reconfiguration machinery.
//
// Deviation from the paper, documented in DESIGN.md: RoBuSt keeps data on
// fixed servers so reconfiguration never moves data; RoBuSt-lite replicates
// per group and hands records to the new groups at each reorganization. The
// handover piggy-backs on the reorganization messages, so it succeeds
// exactly when the epoch does.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "apps/dht/kary_overlay.hpp"
#include "sim/bus.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::apps {

class RobustStore {
 public:
  using Key = std::uint64_t;
  using Value = std::uint64_t;

  struct Request {
    bool is_write = false;
    Key key = 0;
    Value value = 0;
  };

  struct BatchReport {
    std::size_t reads = 0;
    std::size_t writes = 0;
    std::size_t read_ok = 0;   ///< value found and returned
    std::size_t write_ok = 0;  ///< value durably stored
    std::size_t not_found = 0; ///< read reached the home group, no record
    std::size_t routing_failures = 0;  ///< some hop had no available group
    sim::Round rounds = 0;             ///< longest request pipeline
    std::size_t max_group_congestion = 0;  ///< hops through busiest group
  };

  /// Outcome of one individually routed request (serve_one).
  struct ServeResult {
    bool ok = false;     ///< every hop had an available group
    bool found = false;  ///< reads only: record was present
    Value value = 0;
    sim::Round rounds = 0;  ///< pipeline rounds consumed (hops + serve)
  };

  explicit RobustStore(KaryGroupedOverlay* overlay);

  /// Serves one batch of requests under per-round blocking. Each request is
  /// routed from a uniformly random entry group to the key's home group by
  /// fixing one digit per hop (at most `dimension` hops) plus one round to
  /// serve.
  BatchReport execute(std::span<const Request> requests,
                      std::span<const sim::BlockedSet> blocked_per_round,
                      support::Rng& rng);

  /// Routes and serves a single request entering at `entry_group` (the
  /// workload driver draws the entry itself so it can account per-group
  /// capacity). Same digit-fixing route and blocking rule as execute().
  ServeResult serve_one(const Request& request, std::uint64_t entry_group,
                        std::span<const sim::BlockedSet> blocked_per_round);

  /// Runs one reconfiguration epoch of the underlying overlay. Records are
  /// replicated per group, so they survive exactly when the epoch succeeds
  /// (no group silenced).
  KaryGroupedOverlay::EpochReport reconfigure(
      const dos::Attack& attack);

  /// Test/bench helper: direct lookup bypassing routing and blocking.
  [[nodiscard]] std::optional<Value> peek(Key key) const;

  [[nodiscard]] std::uint64_t home_supernode(Key key) const;
  [[nodiscard]] std::size_t record_count() const;

  /// Mixes a raw key into the placement hash space.
  static std::uint64_t hash_key(Key key);

  /// Home supernode of `key` on a plain d-dimensional hypercube (the
  /// Section 5 topology the transport layer deploys, as opposed to this
  /// store's k-ary overlay): the low `dimension` bits of the placement hash.
  static std::uint64_t hypercube_home(Key key, int dimension);

  /// The overlay this store runs on.
  [[nodiscard]] const KaryGroupedOverlay& overlay() const {
    return *overlay_;
  }

  /// Stores a record directly at its home shard. Only for protocols that
  /// have already routed the payload to the home group and paid the
  /// communication (e.g. the aggregated publish of Section 7.3).
  void deposit(Key key, Value value);

 private:
  /// Greedy digit-fixing route from `at` to `home` under per-round blocking;
  /// returns false when some hop (or the final serve round) had no available
  /// group. `rounds` receives the pipeline rounds consumed either way;
  /// per-group hop counts accumulate into `congestion` when non-null.
  bool route_to_home(std::uint64_t at, std::uint64_t home,
                     std::span<const sim::BlockedSet> blocked_per_round,
                     std::size_t& rounds,
                     std::unordered_map<std::uint64_t, std::size_t>* congestion)
      const;

  KaryGroupedOverlay* overlay_;
  /// shard per home supernode; the whole home group replicates it.
  std::unordered_map<std::uint64_t, std::unordered_map<Key, Value>> shards_;
};

}  // namespace reconfnet::apps
