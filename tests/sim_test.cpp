#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "sim/blocked.hpp"
#include "sim/bus.hpp"
#include "sim/metrics.hpp"
#include "sim/snapshot.hpp"
#include "sim/stale_view.hpp"
#include "sim/types.hpp"

namespace reconfnet::sim {
namespace {

TEST(IdAllocator, NeverReusesIds) {
  IdAllocator ids;
  const NodeId a = ids.allocate();
  const NodeId b = ids.allocate();
  EXPECT_NE(a, b);
  EXPECT_EQ(ids.allocated(), 2u);
}

TEST(IdBits, MatchesBinaryLength) {
  EXPECT_EQ(id_bits(0), 1u);
  EXPECT_EQ(id_bits(1), 1u);
  EXPECT_EQ(id_bits(2), 2u);
  EXPECT_EQ(id_bits(255), 8u);
  EXPECT_EQ(id_bits(256), 9u);
}

TEST(Bus, DeliversNextRound) {
  Bus<int> bus;
  bus.send(1, 2, 42, 64);
  EXPECT_TRUE(bus.inbox(2).empty());  // not delivered within sending round
  bus.step();
  ASSERT_EQ(bus.inbox(2).size(), 1u);
  EXPECT_EQ(bus.inbox(2)[0].from, 1u);
  EXPECT_EQ(bus.inbox(2)[0].payload, 42);
  EXPECT_TRUE(bus.inbox(1).empty());
}

TEST(Bus, InboxClearedEachRound) {
  Bus<int> bus;
  bus.send(1, 2, 1, 8);
  bus.step();
  EXPECT_EQ(bus.inbox(2).size(), 1u);
  bus.step();
  EXPECT_TRUE(bus.inbox(2).empty());
}

TEST(Bus, DistinctMessagesToDistinctReceivers) {
  Bus<std::string> bus;
  bus.send(1, 2, "to2", 8);
  bus.send(1, 3, "to3", 8);
  bus.step();
  ASSERT_EQ(bus.inbox(2).size(), 1u);
  ASSERT_EQ(bus.inbox(3).size(), 1u);
  EXPECT_EQ(bus.inbox(2)[0].payload, "to2");
  EXPECT_EQ(bus.inbox(3)[0].payload, "to3");
}

TEST(Bus, BlockedSenderDropsMessage) {
  Bus<int> bus;
  BlockedSet sending;
  sending.insert(1);
  bus.send(1, 2, 7, 8);
  bus.step(sending, BlockedSet{});
  EXPECT_TRUE(bus.inbox(2).empty());
}

TEST(Bus, ReceiverBlockedInSendingRoundDropsMessage) {
  Bus<int> bus;
  BlockedSet sending;
  sending.insert(2);
  bus.send(1, 2, 7, 8);
  bus.step(sending, BlockedSet{});
  EXPECT_TRUE(bus.inbox(2).empty());
}

TEST(Bus, ReceiverBlockedInDeliveryRoundDropsMessage) {
  Bus<int> bus;
  BlockedSet delivery;
  delivery.insert(2);
  bus.send(1, 2, 7, 8);
  bus.step(BlockedSet{}, delivery);
  EXPECT_TRUE(bus.inbox(2).empty());
}

TEST(Bus, SenderBlockedOnlyInDeliveryRoundStillDelivers) {
  // The blocking rule constrains the sender in the sending round only; a
  // sender that goes down in round i+1 has already handed the message to the
  // bus in round i, so it MUST arrive.
  Bus<int> bus;
  BlockedSet delivery;
  delivery.insert(1);  // the sender, blocked in the delivery round
  bus.send(1, 2, 7, 8);
  bus.step(BlockedSet{}, delivery);
  ASSERT_EQ(bus.inbox(2).size(), 1u);
  EXPECT_EQ(bus.inbox(2)[0].payload, 7);
}

TEST(Bus, DropAccountingPerBlockingPath) {
  // Each of the three drop paths of the blocking rule — sender blocked in
  // the sending round, receiver blocked in the sending round, receiver
  // blocked in the delivery round — must hit note_dropped exactly once and
  // charge no receive bits.
  const auto run = [](NodeId blocked, bool in_delivery_round) {
    WorkMeter meter;
    Bus<int> bus(&meter);
    BlockedSet blocked_set;
    blocked_set.insert(blocked);
    bus.send(1, 2, 7, 40);
    if (in_delivery_round) {
      bus.step(BlockedSet{}, blocked_set);
    } else {
      bus.step(blocked_set, BlockedSet{});
    }
    EXPECT_TRUE(bus.inbox(2).empty());
    return meter.history().at(0);
  };
  for (const auto& work : {run(1, false), run(2, false), run(2, true)}) {
    EXPECT_EQ(work.sent_messages, 1u);
    EXPECT_EQ(work.total_messages, 0u);
    EXPECT_EQ(work.dropped_messages, 1u);
    EXPECT_TRUE(work.conserved());
    // Only the sender's 40 bits are charged: the message never arrived.
    EXPECT_EQ(work.total_bits, 40u);
  }
}

TEST(Bus, InboxTurnoverAcrossConsecutiveRounds) {
  // Regression for the deterministic per-delivery clearing: an inbox that
  // receives in consecutive rounds holds only the newest round's messages,
  // and inboxes untouched in a round stay empty.
  Bus<int> bus;
  bus.send(1, 2, 10, 8);
  bus.send(1, 3, 11, 8);
  bus.step();
  ASSERT_EQ(bus.inbox(2).size(), 1u);
  ASSERT_EQ(bus.inbox(3).size(), 1u);
  bus.send(1, 2, 20, 8);
  bus.step();
  ASSERT_EQ(bus.inbox(2).size(), 1u);
  EXPECT_EQ(bus.inbox(2)[0].payload, 20);
  EXPECT_TRUE(bus.inbox(3).empty());  // cleared, not re-delivered
  bus.step();
  EXPECT_TRUE(bus.inbox(2).empty());
}

TEST(Bus, UnblockedEndpointsDeliver) {
  Bus<int> bus;
  BlockedSet sending;
  sending.insert(99);  // unrelated node
  BlockedSet delivery;
  delivery.insert(98);
  bus.send(1, 2, 7, 8);
  bus.step(sending, delivery);
  EXPECT_EQ(bus.inbox(2).size(), 1u);
}

TEST(Bus, RoundCounterAdvances) {
  Bus<int> bus;
  EXPECT_EQ(bus.round(), 0);
  bus.step();
  bus.step();
  EXPECT_EQ(bus.round(), 2);
}

TEST(Bus, MetersBitsOnBothEndpoints) {
  WorkMeter meter;
  Bus<int> bus(&meter);
  bus.send(1, 2, 5, 100);
  bus.send(2, 1, 6, 50);
  bus.step();
  ASSERT_EQ(meter.history().size(), 1u);
  const auto& round_work = meter.history()[0];
  // Node 1: sent 100 + received 50 = 150; node 2: 50 + 100 = 150.
  EXPECT_EQ(round_work.max_node_bits, 150u);
  EXPECT_EQ(round_work.total_bits, 300u);
  EXPECT_EQ(round_work.total_messages, 2u);
  EXPECT_EQ(round_work.dropped_messages, 0u);
}

TEST(Bus, MetersDroppedMessages) {
  WorkMeter meter;
  Bus<int> bus(&meter);
  BlockedSet sending;
  sending.insert(1);
  bus.send(1, 2, 5, 100);
  bus.step(sending, BlockedSet{});
  ASSERT_EQ(meter.history().size(), 1u);
  EXPECT_EQ(meter.history()[0].dropped_messages, 1u);
  // Sender is still charged for the send attempt.
  EXPECT_EQ(meter.history()[0].max_node_bits, 100u);
}

/// Delays every message by one round.
class DelayEveryMessage final : public DeliveryHook {
 public:
  void on_message(NodeId, NodeId, Round,
                  std::vector<Round>& deliveries) override {
    deliveries.push_back(1);
  }
  bool reorder(NodeId, Round, std::size_t, std::vector<std::size_t>&) override {
    return false;
  }
  void on_step(Round) override {}
};

TEST(Bus, DelayedCopyToReceiverBlockedInItsDeliveryRoundIsDropped) {
  // A hook-delayed copy re-checks the receiver side of the blocking rule in
  // the round it actually lands: blocked then, it is released and dropped.
  for (const bool blocked_late : {false, true}) {
    WorkMeter meter;
    Bus<int> bus(&meter);
    DelayEveryMessage hook;
    bus.set_fault_hook(&hook);
    bus.send(1, 2, 7, 40);
    bus.step();
    EXPECT_TRUE(bus.inbox(2).empty());
    EXPECT_EQ(bus.delayed_pending(), 1u);
    BlockedSet delivery;
    if (blocked_late) delivery.insert(2);
    bus.step(BlockedSet{}, delivery);
    EXPECT_EQ(bus.delayed_pending(), 0u);
    ASSERT_EQ(meter.history().size(), 2u);
    const auto& sent = meter.history()[0];
    EXPECT_EQ(sent.deferred_messages, 1u);
    EXPECT_TRUE(sent.conserved());
    const auto& landed = meter.history()[1];
    EXPECT_EQ(landed.released_messages, 1u);
    EXPECT_TRUE(landed.conserved());
    if (blocked_late) {
      EXPECT_TRUE(bus.inbox(2).empty());
      EXPECT_EQ(landed.dropped_messages, 1u);
      EXPECT_EQ(landed.total_messages, 0u);
      EXPECT_EQ(landed.total_bits, 0u);
    } else {
      ASSERT_EQ(bus.inbox(2).size(), 1u);
      EXPECT_EQ(bus.inbox(2)[0].payload, 7);
      EXPECT_EQ(landed.dropped_messages, 0u);
      EXPECT_EQ(landed.total_messages, 1u);
      EXPECT_EQ(landed.total_bits, 40u);
    }
  }
}

/// Delays the first message two rounds and every later one by one round.
class DelayFirstMessageLonger final : public DeliveryHook {
 public:
  void on_message(NodeId, NodeId, Round,
                  std::vector<Round>& deliveries) override {
    deliveries.push_back(messages_++ == 0 ? 2 : 1);
  }
  bool reorder(NodeId, Round, std::size_t, std::vector<std::size_t>&) override {
    return false;
  }
  void on_step(Round) override {}

 private:
  int messages_ = 0;
};

TEST(Bus, DelayedCopyKeepsItsPayloadWhileOthersAreReleased) {
  // The copy at the head of the delay queue stays there while the one
  // behind it is released; a payload that owns memory must survive that.
  Bus<std::vector<int>> bus;
  DelayFirstMessageLonger hook;
  bus.set_fault_hook(&hook);
  bus.send(1, 2, {1, 2, 3}, 8);
  bus.send(1, 3, {4, 5}, 8);
  bus.step();
  bus.step();
  ASSERT_EQ(bus.inbox(3).size(), 1u);
  EXPECT_EQ(bus.inbox(3)[0].payload, (std::vector<int>{4, 5}));
  bus.step();
  ASSERT_EQ(bus.inbox(2).size(), 1u);
  EXPECT_EQ(bus.inbox(2)[0].payload, (std::vector<int>{1, 2, 3}));
}

TEST(Bus, SparseHighIdsReceiveInSendOrder) {
  // Overlay ids are allocated once and never reused, so a bus may address a
  // few ids far above the number of live nodes. Each inbox holds its
  // messages in send order, whatever the senders' ids.
  constexpr NodeId kHigh = 100'003;
  constexpr NodeId kMid = 40'961;
  WorkMeter meter;
  Bus<int> bus(&meter);
  bus.send(90'000, kHigh, 1, 8);
  bus.send(5, kMid, 2, 8);
  bus.send(3, kHigh, 3, 8);
  bus.send(kHigh, 5, 4, 8);
  bus.step();
  ASSERT_EQ(bus.inbox(kHigh).size(), 2u);
  EXPECT_EQ(bus.inbox(kHigh)[0].from, 90'000u);
  EXPECT_EQ(bus.inbox(kHigh)[0].payload, 1);
  EXPECT_EQ(bus.inbox(kHigh)[1].from, 3u);
  EXPECT_EQ(bus.inbox(kHigh)[1].payload, 3);
  ASSERT_EQ(bus.inbox(kMid).size(), 1u);
  EXPECT_EQ(bus.inbox(kMid)[0].payload, 2);
  ASSERT_EQ(bus.inbox(5).size(), 1u);
  EXPECT_EQ(bus.inbox(5)[0].from, kHigh);
  EXPECT_TRUE(bus.inbox(3).empty());
  EXPECT_TRUE(bus.inbox(kMid + 1).empty());
  EXPECT_TRUE(bus.inbox(kHigh + 1).empty());
  EXPECT_TRUE(bus.inbox(kNoNode - 1).empty());
  EXPECT_EQ(meter.history().at(0).total_messages, 4u);
  // The next round addresses only low ids; the high ones are empty again.
  bus.send(kHigh, 1, 5, 8);
  bus.step();
  ASSERT_EQ(bus.inbox(1).size(), 1u);
  EXPECT_TRUE(bus.inbox(kHigh).empty());
  EXPECT_TRUE(bus.inbox(kMid).empty());
}

TEST(WorkMeter, TracksMaxAcrossRounds) {
  WorkMeter meter;
  meter.note_sent(1, 10);
  meter.finish_round(0);
  meter.note_sent(1, 30);
  meter.note_received(1, 5);
  meter.finish_round(1);
  EXPECT_EQ(meter.max_node_bits_any_round(), 35u);
  EXPECT_EQ(meter.total_bits(), 45u);
  EXPECT_EQ(meter.rounds(), 2u);
  meter.clear();
  EXPECT_EQ(meter.rounds(), 0u);
}

TEST(SnapshotBuffer, ServesStaleViews) {
  SnapshotBuffer buffer;
  buffer.ensure_lateness_horizon(3);
  for (Round r = 0; r < 6; ++r) {
    TopologySnapshot snap;
    snap.round = r;
    snap.nodes = {static_cast<NodeId>(r)};
    buffer.push(std::move(snap));
  }
  // Horizon 3 keeps rounds 2..5: round 2 serves stale_view(5 - 3).
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.stale_view(5)->round, 5);
  EXPECT_EQ(buffer.stale_view(3)->round, 3);
  EXPECT_EQ(buffer.stale_view(2)->round, 2);
  EXPECT_EQ(buffer.stale_view(100)->round, 5);
  EXPECT_EQ(buffer.stale_view(1), nullptr);
}

TEST(SnapshotBuffer, TLateSemantics) {
  // A t-late adversary acting at round r sees stale_view(r - t): topology
  // that is at least t rounds old.
  SnapshotBuffer buffer;
  TopologySnapshot snap;
  snap.round = 10;
  buffer.push(snap);
  const Round now = 17;
  const Round lateness = 5;
  const auto* view = buffer.stale_view(now - lateness);
  ASSERT_NE(view, nullptr);
  EXPECT_GE(now - view->round, lateness);
}

TEST(SnapshotBuffer, RetainsOnlyBackToTheHorizon) {
  // One push per round under horizon 10: every round keeps exactly the
  // snapshot a 10-late adversary is served, and nothing older, so the
  // buffer never holds more than horizon + 1 snapshots.
  SnapshotBuffer buffer;
  buffer.ensure_lateness_horizon(10);
  for (Round r = 0; r < 40; ++r) {
    TopologySnapshot snap;
    snap.round = r;
    buffer.push(std::move(snap));
    EXPECT_LE(buffer.size(), 11u);
    if (r >= 10) {
      const auto* view = buffer.stale_view(r - 10);
      ASSERT_NE(view, nullptr) << "horizon snapshot evicted at round " << r;
      EXPECT_EQ(view->round, r - 10);
      EXPECT_EQ(buffer.stale_view(r - 11), nullptr);
    }
  }
  EXPECT_EQ(buffer.size(), 11u);
}

TEST(SnapshotBuffer, SparsePushesKeepTheSnapshotBeforeTheBoundary) {
  // One push every 7 rounds under horizon 10: the front is the freshest
  // snapshot at or before newest - 10, which may be up to 16 rounds old.
  SnapshotBuffer buffer;
  buffer.ensure_lateness_horizon(10);
  for (Round r = 0; r <= 70; r += 7) {
    TopologySnapshot snap;
    snap.round = r;
    buffer.push(std::move(snap));
  }
  // Newest 70, boundary 60: rounds 56, 63 and 70 stay.
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.stale_view(60)->round, 56);
  EXPECT_EQ(buffer.stale_view(55), nullptr);
}

TEST(SnapshotBuffer, NoHorizonKeepsOnlyTheNewest) {
  SnapshotBuffer buffer;
  for (Round r = 0; r < 5; ++r) {
    TopologySnapshot snap;
    snap.round = r;
    buffer.push(std::move(snap));
  }
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer.latest()->round, 4);
}

TEST(SnapshotBuffer, LatenessHorizonOnlyGrows) {
  // The strongest adversary seen pins the history: a later, weaker attack
  // must not shrink what an earlier stronger one still needs.
  SnapshotBuffer buffer;
  buffer.ensure_lateness_horizon(8);
  buffer.ensure_lateness_horizon(3);
  EXPECT_EQ(buffer.lateness_horizon(), 8);
}

TEST(StaleSnapshotView, EmptyViewHasNoSnapshotAndNoReads) {
  StaleSnapshotView view;
  EXPECT_FALSE(view.has_snapshot());
  EXPECT_EQ(view.reads(), 0u);
}

TEST(StaleSnapshotView, CountsEveryAuditedRead) {
  TopologySnapshot snap;
  snap.round = 3;
  snap.nodes = {0, 1};
  snap.edges = {{0, 1}};
  const StaleSnapshotView view(&snap, 8, 5);
  EXPECT_EQ(view.now(), 8);
  EXPECT_EQ(view.lateness(), 5);
  EXPECT_EQ(view.reads(), 0u);  // metadata accessors are free
  (void)view.round();
  (void)view.nodes();
  (void)view.edges();
  EXPECT_EQ(view.reads(), 3u);
}

TEST(StaleSnapshotView, ServeStaleExactBoundaryHit) {
  SnapshotBuffer buffer;
  buffer.ensure_lateness_horizon(4);
  for (Round r = 0; r <= 10; ++r) {
    TopologySnapshot snap;
    snap.round = r;
    buffer.push(std::move(snap));
  }
  // Exactly t-late: round 10 with lateness 4 serves the round-6 snapshot.
  const auto view = serve_stale(buffer, 10, 4);
  ASSERT_TRUE(view.has_snapshot());
  EXPECT_EQ(view.round(), 6);
  // Lateness 0 is the trivial contract: the freshest snapshot qualifies.
  const auto fresh = serve_stale(buffer, 10, 0);
  ASSERT_TRUE(fresh.has_snapshot());
  EXPECT_EQ(fresh.round(), 10);
}

TEST(StaleSnapshotView, PreHistoryServesEmptyView) {
  // No snapshot old enough exists yet: the adversary gets an empty view,
  // not a fresher-than-t one.
  SnapshotBuffer buffer;
  TopologySnapshot snap;
  snap.round = 5;
  buffer.push(std::move(snap));
  const auto view = serve_stale(buffer, 6, 4);
  EXPECT_FALSE(view.has_snapshot());
}

TEST(StaleSnapshotView, OracleAuditThrowsOnTooFreshRead) {
  TopologySnapshot snap;
  snap.round = 8;
  snap.nodes = {0};
  const audit::ScopedOracleEnable oracle;
  // 10 - 8 < 5: a view fresher than the configured lateness fails on first
  // read, not at some later divergence.
  const StaleSnapshotView fresh(&snap, 10, 5);
  EXPECT_THROW((void)fresh.nodes(), audit::AuditError);
  const StaleSnapshotView ok(&snap, 13, 5);
  EXPECT_NO_THROW((void)ok.nodes());
}

TEST(StaleSnapshotView, SerializeRoundTripsThroughViewSpans) {
  // The canonical byte encoding survives the trip through the audited view:
  // what the adversary can read is exactly what the snapshot holds (this is
  // the same serialization the --jobs determinism tests compare bytewise).
  TopologySnapshot snap;
  snap.round = 7;
  snap.nodes = {1, 2, 3};
  snap.edges = {{1, 2}, {2, 3}};
  const auto direct = serialize(snap);
  const StaleSnapshotView view(&snap, 12, 5);
  TopologySnapshot rebuilt;
  rebuilt.round = view.round();
  const auto nodes = view.nodes();
  const auto edges = view.edges();
  rebuilt.nodes.assign(nodes.begin(), nodes.end());
  rebuilt.edges.assign(edges.begin(), edges.end());
  EXPECT_EQ(serialize(rebuilt), direct);
  EXPECT_EQ(view.reads(), 3u);
}

}  // namespace
}  // namespace reconfnet::sim
