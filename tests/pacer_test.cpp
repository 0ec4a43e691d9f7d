// RoundPacer state-machine coverage in isolation: a FakeClock and hand-fed
// frame observations, no sockets (DESIGN.md §15). The scenarios mirror what
// the live runtime must survive: stragglers inside and past the resync
// horizon, silent peers marching through suspect to evicted, and a whole
// group going dark (the protocol's epoch-abort trigger).
#include <gtest/gtest.h>

#include <vector>

#include "transport/clock.hpp"
#include "transport/pacer.hpp"

namespace reconfnet::transport {
namespace {

PacerConfig tight_config() {
  PacerConfig config;
  config.round_budget_us = 1'000;
  return config;
}

/// The deadline budget of `round` under tight_config().
std::int64_t budget_us(int round) {
  return 1'000 + (round == 0 ? kStartupGraceUs : 0);
}

std::vector<sim::NodeId> ids(std::initializer_list<sim::NodeId> list) {
  return {list};
}

TEST(Pacer, EarlyAdvanceOncePeersCaughtUp) {
  FakeClock clock;
  RoundPacer pacer(tight_config(), clock.now_us());
  const auto peers = ids({1, 2});
  pacer.set_peers(peers);

  EXPECT_FALSE(pacer.tick(clock.now_us()).advance);
  pacer.note_frame(1, 0);
  EXPECT_FALSE(pacer.tick(clock.now_us()).advance);
  pacer.note_frame(2, 0);

  const auto tick = pacer.tick(clock.now_us());
  EXPECT_TRUE(tick.advance);
  EXPECT_FALSE(tick.resync);
  EXPECT_EQ(tick.next_round, 1);
  EXPECT_EQ(pacer.counters().early_advances, 1u);
}

TEST(Pacer, DeadlineAdvanceWithoutQuorum) {
  FakeClock clock;
  RoundPacer pacer(tight_config(), clock.now_us());
  pacer.set_peers(ids({1}));

  EXPECT_FALSE(pacer.tick(clock.now_us()).advance);
  clock.advance_us(budget_us(0) - 1);
  EXPECT_FALSE(pacer.tick(clock.now_us()).advance);
  clock.advance_us(1);
  const auto tick = pacer.tick(clock.now_us());
  EXPECT_TRUE(tick.advance);
  EXPECT_EQ(tick.next_round, 1);
  EXPECT_EQ(pacer.counters().deadline_advances, 1u);
}

TEST(Pacer, EarlyAdvanceGatedOffWhileSendsUnsettled) {
  FakeClock clock;
  RoundPacer pacer(tight_config(), clock.now_us());
  pacer.set_peers(ids({1}));
  pacer.note_frame(1, 0);

  // Quorum is there, but our own sends are not acked: no early advance.
  EXPECT_FALSE(pacer.tick(clock.now_us(), /*early_ok=*/false).advance);
  // The deadline still fires — liveness beats the delivery barrier.
  clock.advance_us(budget_us(0));
  const auto tick = pacer.tick(clock.now_us(), /*early_ok=*/false);
  EXPECT_TRUE(tick.advance);
  EXPECT_EQ(pacer.counters().deadline_advances, 1u);
  EXPECT_EQ(pacer.counters().early_advances, 0u);
}

TEST(Pacer, StartupGraceStretchesRoundZeroOnly) {
  FakeClock clock;
  RoundPacer pacer(tight_config(), clock.now_us());
  pacer.set_peers(ids({1}));

  clock.advance_us(kStartupGraceUs);  // past the budget, inside the grace
  EXPECT_FALSE(pacer.tick(clock.now_us()).advance);
  clock.advance_us(1'000);
  EXPECT_TRUE(pacer.tick(clock.now_us()).advance);
  pacer.begin_round(1, clock.now_us());
  clock.advance_us(1'000);  // round 1 gets the plain budget
  EXPECT_TRUE(pacer.tick(clock.now_us()).advance);
}

TEST(Pacer, StragglerWithinHorizonAdvancesNormally) {
  FakeClock clock;
  RoundPacer pacer(tight_config(), clock.now_us());
  pacer.set_peers(ids({1}));

  // The peer is ahead of us, but within the horizon: normal single-step
  // advance (it satisfies the quorum trivially), no resync jump.
  pacer.note_frame(1, kResyncHorizon);
  const auto tick = pacer.tick(clock.now_us());
  EXPECT_TRUE(tick.advance);
  EXPECT_FALSE(tick.resync);
  EXPECT_EQ(tick.next_round, 1);
  EXPECT_EQ(pacer.counters().resyncs, 0u);
}

TEST(Pacer, StragglerPastHorizonResyncs) {
  FakeClock clock;
  RoundPacer pacer(tight_config(), clock.now_us());
  pacer.set_peers(ids({1, 2}));

  // Past round 0 + kResyncHorizon: we are far behind.
  pacer.note_frame(1, kResyncHorizon + 1);
  const auto tick = pacer.tick(clock.now_us());
  EXPECT_TRUE(tick.advance);
  EXPECT_TRUE(tick.resync);
  EXPECT_EQ(tick.next_round, kResyncHorizon + 1);
  EXPECT_EQ(pacer.counters().resyncs, 1u);
}

TEST(Pacer, StaleGhostNeitherRejoinsNorResyncs) {
  FakeClock clock;
  RoundPacer pacer(tight_config(), clock.now_us());
  pacer.set_peers(ids({1, 2}));
  pacer.note_frame(2, 0);

  // Evict peer 1 by letting it miss kEvictAfter deadlines. Charging starts
  // at round 1: at round 0 nobody has completed anything yet, so silence is
  // not a miss.
  for (int round = 0; round <= kEvictAfter; ++round) {
    clock.advance_us(budget_us(round));
    const auto tick = pacer.tick(clock.now_us());
    ASSERT_TRUE(tick.advance);
    pacer.begin_round(tick.next_round, clock.now_us());
  }
  ASSERT_TRUE(pacer.evicted(1));

  // A straggling duplicate announcing an old round (< round - 1) is not
  // evidence of life NOW: the peer stays evicted, contributes nothing to
  // the quorum, and cannot drag us anywhere.
  pacer.note_frame(1, 2);
  EXPECT_TRUE(pacer.evicted(1));
  const auto tick = pacer.tick(clock.now_us());
  EXPECT_FALSE(tick.resync);
  EXPECT_EQ(pacer.counters().rejoins, 0u);
}

TEST(Pacer, EvictedPeerRejoinsOnCurrentAnnouncement) {
  FakeClock clock;
  RoundPacer pacer(tight_config(), clock.now_us());
  pacer.set_peers(ids({1, 2}));
  pacer.note_frame(2, 0);

  for (int round = 0; round <= kEvictAfter; ++round) {
    clock.advance_us(budget_us(round));
    const auto tick = pacer.tick(clock.now_us());
    ASSERT_TRUE(tick.advance);
    pacer.begin_round(tick.next_round, clock.now_us());
  }
  ASSERT_TRUE(pacer.evicted(1));  // now in round kEvictAfter + 1
  const sim::Round now = pacer.round();

  // The peer was starved, not dead: a completion announcement for a current
  // round undoes the eviction (crashed nodes can never produce one), and
  // the rejoined peer counts toward the quorum again.
  pacer.note_frame(1, now - 1);
  EXPECT_FALSE(pacer.evicted(1));
  EXPECT_FALSE(pacer.suspected(1));
  EXPECT_EQ(pacer.counters().rejoins, 1u);

  pacer.note_frame(1, now);
  pacer.note_frame(2, now);
  const auto tick = pacer.tick(clock.now_us());
  EXPECT_TRUE(tick.advance);
  EXPECT_FALSE(tick.resync);
}

TEST(Pacer, SilentPeerSuspectedThenEvicted) {
  FakeClock clock;
  RoundPacer pacer(tight_config(), clock.now_us());
  pacer.set_peers(ids({1, 2}));

  // Misses accrue from round 1 on (round 0 has no completed round to be
  // behind of), so peer 1 is suspected after round kSuspectAfter's deadline
  // and evicted after round kEvictAfter's.
  for (int round = 0; round <= kEvictAfter; ++round) {
    pacer.note_frame(2, round);  // peer 2 keeps up, peer 1 stays silent
    clock.advance_us(budget_us(round));
    const auto tick = pacer.tick(clock.now_us());
    ASSERT_TRUE(tick.advance) << "round " << round;
    ASSERT_EQ(tick.next_round, round + 1);
    if (round == kSuspectAfter) {
      EXPECT_TRUE(pacer.suspected(1));
      EXPECT_FALSE(pacer.evicted(1));
    }
    pacer.begin_round(tick.next_round, clock.now_us());
  }
  EXPECT_TRUE(pacer.evicted(1));
  EXPECT_FALSE(pacer.evicted(2));
  EXPECT_EQ(pacer.evicted_peers(), ids({1}));
  EXPECT_EQ(pacer.counters().evictions, 1u);

  // With the silent peer gone, the live peer alone forms the quorum.
  pacer.note_frame(2, pacer.round());
  EXPECT_TRUE(pacer.tick(clock.now_us()).advance);
  EXPECT_GE(pacer.counters().early_advances, 1u);
}

TEST(Pacer, CatchUpClearsTheMissStreak) {
  FakeClock clock;
  RoundPacer pacer(tight_config(), clock.now_us());
  pacer.set_peers(ids({1}));

  // Misses in rounds 1..kSuspectAfter -> suspected; then the peer catches up
  // and the streak resets at the next boundary instead of accumulating
  // toward eviction.
  for (int round = 0; round <= kSuspectAfter; ++round) {
    clock.advance_us(budget_us(round));
    const auto tick = pacer.tick(clock.now_us());
    ASSERT_TRUE(tick.advance);
    pacer.begin_round(tick.next_round, clock.now_us());
  }
  ASSERT_TRUE(pacer.suspected(1));

  pacer.note_frame(1, pacer.round());
  const auto tick = pacer.tick(clock.now_us());
  ASSERT_TRUE(tick.advance);
  pacer.begin_round(tick.next_round, clock.now_us());
  EXPECT_FALSE(pacer.suspected(1));
  EXPECT_FALSE(pacer.evicted(1));
}

TEST(Pacer, GroupSilenceNeedsEveryTrackedMemberEvicted) {
  FakeClock clock;
  RoundPacer pacer(tight_config(), clock.now_us());
  pacer.set_peers(ids({1, 2, 3}));
  pacer.note_frame(3, 0);

  for (int round = 0; round <= kEvictAfter; ++round) {
    pacer.note_frame(3, round);
    clock.advance_us(budget_us(round));
    const auto tick = pacer.tick(clock.now_us());
    ASSERT_TRUE(tick.advance);
    pacer.begin_round(tick.next_round, clock.now_us());
  }
  ASSERT_TRUE(pacer.evicted(1));
  ASSERT_TRUE(pacer.evicted(2));

  const auto dead_group = ids({1, 2});
  const auto mixed_group = ids({2, 3});
  const auto untracked_group = ids({7, 8});
  EXPECT_TRUE(pacer.group_silent(dead_group));
  EXPECT_FALSE(pacer.group_silent(mixed_group));
  // A group we track nobody of must never read as silent.
  EXPECT_FALSE(pacer.group_silent(untracked_group));
}

TEST(Pacer, SetPeersKeepsLivenessOfRetainedPeers) {
  FakeClock clock;
  RoundPacer pacer(tight_config(), clock.now_us());
  pacer.set_peers(ids({1, 2}));

  for (int round = 0; round <= kEvictAfter; ++round) {
    pacer.note_frame(2, round);
    clock.advance_us(budget_us(round));
    const auto tick = pacer.tick(clock.now_us());
    ASSERT_TRUE(tick.advance);
    pacer.begin_round(tick.next_round, clock.now_us());
  }
  ASSERT_TRUE(pacer.evicted(1));

  // Reconfiguration swaps peer 2 for peer 5; peer 1's eviction survives.
  pacer.set_peers(ids({1, 5}));
  EXPECT_TRUE(pacer.evicted(1));
  EXPECT_FALSE(pacer.evicted(5));
}

}  // namespace
}  // namespace reconfnet::transport
