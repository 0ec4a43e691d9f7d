// Deadline-driven round pacing for the live transport (DESIGN.md §15).
//
// The simulator advances rounds in global lockstep; a live deployment cannot.
// The RoundPacer gives each node bounded asynchrony instead: a round lasts at
// most `round_budget_us` (round 0 kStartupGraceUs longer), but advances early
// once every tracked peer has been heard at (or past) the current round.
// Peers that repeatedly miss the deadline are suspected and then evicted
// (missed-ack/heartbeat liveness); peers heard far *ahead* of us mean we are
// the straggler, and once they are past the resync horizon the pacer orders
// a resync jump instead of grinding forward one round at a time.
//
// The pacer is a pure state machine over (frames heard, now_us): no sockets,
// no wall clock — tests drive it with a FakeClock (satellite coverage in
// tests/pacer_test.cpp), the live runtime with MonotonicClock.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace reconfnet::transport {

struct PacerConfig {
  std::int64_t round_budget_us = 20'000;  ///< deadline per round
};

/// Extra deadline budget for round 0, while a deployment's processes start.
inline constexpr std::int64_t kStartupGraceUs = 2'000'000;
/// A peer heard more than this many rounds ahead triggers a resync jump.
inline constexpr int kResyncHorizon = 8;
/// Consecutive missed deadlines after which a peer is suspected.
inline constexpr int kSuspectAfter = 3;
/// Consecutive missed deadlines after which a peer is evicted.
inline constexpr int kEvictAfter = 10;

class RoundPacer {
 public:
  /// What to do now: keep waiting, or advance (normally or by resync jump).
  struct Tick {
    bool advance = false;
    sim::Round next_round = 0;
    bool resync = false;  ///< next_round jumped past current + 1
  };

  struct Counters {
    std::uint64_t deadline_advances = 0;  ///< rounds ended by the deadline
    std::uint64_t early_advances = 0;     ///< rounds ended by full quorum
    std::uint64_t resyncs = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rejoins = 0;  ///< evictions undone by a fresh announcement
  };

  RoundPacer(PacerConfig config, std::int64_t now_us);

  /// Replaces the tracked peer set (initial groups, or after an epoch
  /// reconfigures the topology). Liveness state of retained peers survives;
  /// new peers start fresh and unsuspected.
  void set_peers(std::span<const sim::NodeId> peers);

  /// Records that `peer` announced `peer_round` as COMPLETED (its reliable
  /// sends for that round are all acked, so everything it sent us is already
  /// staged here). Advance quorum, miss accounting and resync detection all
  /// run on these completion announcements. An evicted peer announcing a
  /// current round (>= round - 1) rejoins: only live nodes announce, so a
  /// fresh announcement proves the eviction was a starvation artifact.
  void note_frame(sim::NodeId peer, sim::Round peer_round);

  /// Decides whether to advance from the current round at time `now_us`.
  /// When it returns advance, the caller runs the protocol round and then
  /// calls begin_round(next_round, now). `early_ok` gates the quorum path:
  /// the runtime passes false while its own sends are still unacked, so a
  /// node never leaves a round before its frames provably landed — only the
  /// deadline (the give-up path that mirrors the simulator's permanent
  /// drop) and the resync jump may fire then.
  [[nodiscard]] Tick tick(std::int64_t now_us, bool early_ok = true);

  /// Starts `round`, arming its deadline.
  void begin_round(sim::Round round, std::int64_t now_us);

  [[nodiscard]] sim::Round round() const { return round_; }
  [[nodiscard]] bool suspected(sim::NodeId peer) const;
  [[nodiscard]] bool evicted(sim::NodeId peer) const;
  /// Evicted peers, ascending by id.
  [[nodiscard]] std::vector<sim::NodeId> evicted_peers() const;
  /// True iff `members` contains at least one tracked peer and every tracked
  /// one is evicted — the group-silence trigger for the protocol's epoch
  /// abort. Untracked members (ourselves, far groups) are skipped, so a group
  /// we track nobody of never reads as silent.
  [[nodiscard]] bool group_silent(std::span<const sim::NodeId> members) const;

  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  struct Peer {
    sim::NodeId id = sim::kNoNode;
    sim::Round last_heard = -1;  ///< highest completed round announced
    int misses = 0;  ///< consecutive deadlines spent > 1 round behind
    bool evicted = false;
  };

  [[nodiscard]] const Peer* find(sim::NodeId id) const;
  [[nodiscard]] Peer* find(sim::NodeId id);

  PacerConfig config_;
  std::vector<Peer> peers_;  ///< sorted by id
  sim::Round round_ = 0;
  std::int64_t deadline_us_ = 0;
  Counters counters_;
};

}  // namespace reconfnet::transport
