// Tests for the deterministic fault-injection layer (src/fault/): the
// FaultInjector's schedules and determinism contract, the ack/retry/dedup
// core and the ReliableChannel built on it, and the graceful-degradation
// behavior of the churn protocols under injected faults (DESIGN.md §10).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "adversary/churn.hpp"
#include "audit/invariants.hpp"
#include "churn/overlay.hpp"
#include "churn/reconfigure.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "fault/reliable_channel.hpp"
#include "fault/retry.hpp"
#include "graph/hgraph.hpp"
#include "runtime/trial_runner.hpp"
#include "sim/blocked.hpp"
#include "sim/bus.hpp"
#include "sim/metrics.hpp"
#include "support/rng.hpp"

namespace reconfnet::fault {
namespace {

struct Probe {
  int tag = 0;
};

/// A mixed-fault plan used by the determinism and conservation tests.
FaultPlan nasty_plan() {
  FaultPlan plan;
  plan.with_loss(0.2)
      .with_burst({0.1, 0.3, 0.0, 1.0})
      .with_duplication(0.15)
      .with_delay(0.3, 2)
      .with_reordering();
  return plan;
}

/// Drives `rounds` rounds of all-to-all probe traffic over `n` nodes and
/// returns a digest of every delivery in order. `blocked[r]` is the
/// adversary's blocked set in round r; rounds past its end block nobody.
std::string traffic_digest(FaultInjector& injector, std::size_t n,
                           int rounds, sim::WorkMeter* meter,
                           const std::vector<sim::BlockedSet>& blocked = {}) {
  static const sim::BlockedSet kNone;
  const auto blocked_in = [&](sim::Round r) -> const sim::BlockedSet& {
    const auto index = static_cast<std::size_t>(r);
    return index < blocked.size() ? blocked[index] : kNone;
  };
  sim::Bus<Probe> bus(meter);
  bus.set_fault_hook(&injector);
  const auto step = [&] {
    bus.step(blocked_in(bus.round()), blocked_in(bus.round() + 1));
  };
  std::string digest;
  int tag = 0;
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t w = 0; w < n; ++w) {
        if (v == w) continue;
        bus.send(v, w, Probe{tag++}, 8);
      }
    }
    step();
    for (std::size_t v = 0; v < n; ++v) {
      for (const auto& envelope : bus.inbox(v)) {
        digest += std::to_string(envelope.from) + ">" +
                  std::to_string(envelope.to) + ":" +
                  std::to_string(envelope.payload.tag) + ";";
      }
    }
  }
  // Drain the delay queue so deferred copies are accounted too.
  while (bus.delayed_pending() > 0) {
    step();
    for (std::size_t v = 0; v < n; ++v) {
      for (const auto& envelope : bus.inbox(v)) {
        digest += std::to_string(envelope.from) + ">" +
                  std::to_string(envelope.to) + ":" +
                  std::to_string(envelope.payload.tag) + ";";
      }
    }
  }
  return digest;
}

TEST(FaultInjector, NoOpPlanIsByteIdenticalToNoHook) {
  const std::size_t n = 6;
  const int rounds = 5;
  sim::WorkMeter bare_meter;
  std::string bare;
  {
    sim::Bus<Probe> bus(&bare_meter);
    int tag = 0;
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t v = 0; v < n; ++v) {
        for (std::size_t w = 0; w < n; ++w) {
          if (v != w) bus.send(v, w, Probe{tag++}, 8);
        }
      }
      bus.step();
      for (std::size_t v = 0; v < n; ++v) {
        for (const auto& envelope : bus.inbox(v)) {
          bare += std::to_string(envelope.from) + ">" +
                  std::to_string(envelope.to) + ":" +
                  std::to_string(envelope.payload.tag) + ";";
        }
      }
    }
  }
  sim::WorkMeter hooked_meter;
  FaultInjector injector(FaultPlan::none(), support::Rng(7));
  const std::string hooked =
      traffic_digest(injector, n, rounds, &hooked_meter);
  EXPECT_EQ(bare, hooked);
  EXPECT_EQ(injector.counters().offered,
            static_cast<std::uint64_t>(n * (n - 1) * rounds));
  ASSERT_EQ(bare_meter.history().size(), hooked_meter.history().size());
  for (std::size_t r = 0; r < bare_meter.history().size(); ++r) {
    const auto& a = bare_meter.history()[r];
    const auto& b = hooked_meter.history()[r];
    EXPECT_EQ(a.total_messages, b.total_messages) << "round " << r;
    EXPECT_EQ(a.total_bits, b.total_bits) << "round " << r;
    EXPECT_EQ(b.injected_drops, 0u);
    EXPECT_EQ(b.duplicated_messages, 0u);
    EXPECT_EQ(b.deferred_messages, 0u);
  }
}

TEST(FaultInjector, DeterministicAcrossJobs) {
  const auto body = [](runtime::TrialContext& context) {
    FaultInjector injector(nasty_plan(), context.rng.split(1));
    return traffic_digest(injector, 6, 4, nullptr);
  };
  runtime::TrialRunner serial(0xFA17, 1);
  runtime::TrialRunner parallel(0xFA17, 4);
  const auto a = serial.run(8, body);
  const auto b = parallel.run(8, body);
  EXPECT_EQ(a, b);
  // Distinct trials see distinct fault schedules.
  EXPECT_NE(a[0], a[1]);
}

TEST(FaultInjector, GilbertElliottBurstLengthsMatchExitRate) {
  FaultPlan plan;
  plan.with_burst({0.05, 0.25, 0.0, 1.0});  // mean burst length = 4
  FaultInjector injector(plan, support::Rng(11));
  sim::Bus<Probe> bus(nullptr);
  bus.set_fault_hook(&injector);
  std::size_t bursts = 0;
  std::size_t burst_losses = 0;
  bool in_burst = false;
  for (int i = 0; i < 20000; ++i) {
    bus.send(0, 1, Probe{i}, 1);
    bus.step();
    const bool lost = bus.inbox(1).empty();
    if (lost) {
      ++burst_losses;
      if (!in_burst) ++bursts;
    }
    in_burst = lost;
  }
  ASSERT_GT(bursts, 50u);
  const double mean_burst =
      static_cast<double>(burst_losses) / static_cast<double>(bursts);
  EXPECT_GT(mean_burst, 3.0);
  EXPECT_LT(mean_burst, 5.5);
  EXPECT_EQ(injector.counters().lost_burst, burst_losses);
  EXPECT_EQ(injector.counters().lost_iid, 0u);
}

TEST(FaultInjector, DelayIsBoundedAndLossless) {
  FaultPlan plan;
  plan.with_delay(1.0, 3);  // every message delayed by 1..3 rounds
  FaultInjector injector(plan, support::Rng(3));
  sim::Bus<Probe> bus(nullptr);
  bus.set_fault_hook(&injector);
  const int count = 200;
  for (int i = 0; i < count; ++i) bus.send(0, 1, Probe{i}, 1);
  int arrived = 0;
  for (int round = 1; round <= 6; ++round) {
    bus.step();
    const auto inbox = bus.inbox(1);
    arrived += static_cast<int>(inbox.size());
    if (!inbox.empty()) {
      // Sent in round 0 with delay k in [1, 3]: visible in rounds 2..4.
      EXPECT_GE(round, 2) << "delivery arrived earlier than the minimum delay";
      EXPECT_LE(round, 4) << "delivery exceeded max_delay";
    }
  }
  EXPECT_EQ(arrived, count);
  EXPECT_EQ(bus.delayed_pending(), 0u);
  EXPECT_EQ(injector.counters().delayed_copies,
            static_cast<std::uint64_t>(count));
}

TEST(FaultInjector, ScriptedCrashWindows) {
  FaultPlan plan;
  plan.with_crash({3, 2, 5});    // node 3 down at ticks 2..4
  plan.with_crash({7, 4, -1});   // node 7 crash-stop from tick 4
  FaultInjector injector(plan, support::Rng(1));
  EXPECT_FALSE(injector.is_crashed(3, 1));
  EXPECT_TRUE(injector.is_crashed(3, 2));
  EXPECT_TRUE(injector.is_crashed(3, 4));
  EXPECT_FALSE(injector.is_crashed(3, 5));
  EXPECT_FALSE(injector.is_crashed(7, 3));
  EXPECT_TRUE(injector.is_crashed(7, 4));
  EXPECT_TRUE(injector.is_crashed(7, 1000));
  EXPECT_FALSE(injector.is_crashed(0, 2));
}

TEST(FaultInjector, RandomCrashQueriesAreOrderIndependent) {
  for (const sim::Round restart : {sim::Round{4}, sim::Round{-1}}) {
    FaultPlan plan;
    plan.with_crash_rate(0.15, restart);
    FaultInjector forward(plan, support::Rng(21));
    FaultInjector backward(plan, support::Rng(21));
    std::vector<bool> a, b;
    for (sim::NodeId node = 0; node < 8; ++node) {
      for (sim::Round tick = 0; tick < 32; ++tick) {
        a.push_back(forward.is_crashed(node, tick));
      }
    }
    for (sim::NodeId node = 8; node-- > 0;) {
      for (sim::Round tick = 32; tick-- > 0;) {
        b.push_back(backward.is_crashed(node, tick));
      }
    }
    std::reverse(b.begin(), b.end());
    EXPECT_EQ(a, b);
    EXPECT_TRUE(std::find(a.begin(), a.end(), true) != a.end());
    if (restart >= 0) {
      // Crash-restart: every crashed node comes back up eventually.
      for (sim::NodeId node = 0; node < 8; ++node) {
        EXPECT_FALSE(forward.is_crashed(node, 10000) &&
                     forward.is_crashed(node, 10000 + restart))
            << "node " << node << " never restarts";
      }
    }
  }
}

TEST(FaultInjector, PartitionDropsCrossCutTrafficUntilHeal) {
  FaultPlan plan;
  plan.with_partition({1, 3, 2, 0});  // ticks 1..2, side A = ids below 2
  FaultInjector injector(plan, support::Rng(5));
  EXPECT_FALSE(injector.partitioned(0, 3, 0));
  EXPECT_TRUE(injector.partitioned(0, 3, 1));
  EXPECT_TRUE(injector.partitioned(3, 0, 2));
  EXPECT_FALSE(injector.partitioned(3, 0, 3));
  EXPECT_FALSE(injector.partitioned(0, 1, 1));  // same side
  sim::Bus<Probe> bus(nullptr);
  bus.set_fault_hook(&injector);
  std::vector<int> arrivals;
  for (int round = 0; round < 5; ++round) {
    bus.send(0, 3, Probe{round}, 1);
    bus.step();
    for (const auto& envelope : bus.inbox(3)) {
      arrivals.push_back(envelope.payload.tag);
    }
  }
  EXPECT_EQ(arrivals, (std::vector<int>{0, 3, 4}));
  EXPECT_EQ(injector.counters().partition_drops, 2u);
}

TEST(FaultInjector, ConservationHoldsUnderFaults) {
  sim::WorkMeter meter;
  FaultInjector injector(nasty_plan(), support::Rng(13));
  traffic_digest(injector, 8, 6, &meter);
  ASSERT_FALSE(meter.history().empty());
  bool any_fault = false;
  for (const auto& round : meter.history()) {
    EXPECT_TRUE(round.conserved())
        << "round " << round.round << ": delivered " << round.total_messages
        << " dropped " << round.dropped_messages << " injected "
        << round.injected_drops << " deferred " << round.deferred_messages
        << " sent " << round.sent_messages << " duplicated "
        << round.duplicated_messages << " released "
        << round.released_messages;
    any_fault |= round.injected_drops > 0 || round.duplicated_messages > 0 ||
                 round.deferred_messages > 0;
  }
  EXPECT_TRUE(any_fault) << "the nasty plan injected nothing";
}

/// FNV-1a over the bytes of `text`, then over the 8 bytes of each word.
std::uint64_t fnv1a(const std::string& text,
                    const std::vector<std::uint64_t>& words = {}) {
  std::uint64_t hash = 14695981039346656037ull;
  const auto mix = [&](std::uint64_t byte) {
    hash = (hash ^ byte) * 1099511628211ull;
  };
  for (const char c : text) mix(static_cast<unsigned char>(c));
  for (const std::uint64_t word : words) {
    for (int shift = 0; shift < 64; shift += 8) mix((word >> shift) & 0xFF);
  }
  return hash;
}

// Pins the Bus's deliveries and metering under mixed faults with an
// adversary that blocks on some rounds, so a change to the fault path
// cannot hide behind comparisons of the Bus with itself (bare against
// hooked, one job against four). Blocking continues into the drain rounds,
// where delayed copies are released to blocked receivers and dropped.
TEST(FaultInjector, DigestAndMeterHistoryArePinnedUnderBlocking) {
  std::vector<sim::BlockedSet> blocked(12);
  blocked[1].insert(2);
  blocked[3].insert(0);
  blocked[3].insert(5);
  blocked[4].insert(5);
  blocked[6].insert(1);
  blocked[7].insert(3);
  blocked[7].insert(6);
  blocked[8].insert(4);
  sim::WorkMeter meter;
  FaultInjector injector(nasty_plan(), support::Rng(13));
  const std::string digest = traffic_digest(injector, 8, 6, &meter, blocked);
  std::vector<std::uint64_t> history;
  for (const auto& round : meter.history()) {
    EXPECT_TRUE(round.conserved()) << "round " << round.round;
    history.insert(history.end(),
                   {static_cast<std::uint64_t>(round.round),
                    round.max_node_bits, round.total_bits,
                    round.sent_messages, round.total_messages,
                    round.dropped_messages, round.injected_drops,
                    round.duplicated_messages, round.deferred_messages,
                    round.released_messages});
  }
  ASSERT_EQ(meter.history().size(), 8u);
  // The drain rounds send nothing: their drops are released copies whose
  // receiver was blocked when they landed.
  EXPECT_GT(meter.history()[6].dropped_messages +
                meter.history()[7].dropped_messages,
            0u);
  EXPECT_EQ(fnv1a(digest), 14578523092062534128ull);
  EXPECT_EQ(fnv1a("", history), 7477065346670697298ull);
}

// ---------------------------------------------------------------------------
// RetrySender / DedupWindow: the ack/retry core under both reliable wrappers

/// Every transmission of a sender, as (tick, seq, earlier transmissions).
struct Sent {
  std::int64_t tick = 0;
  std::uint32_t seq = 0;
  int sent = 0;
  bool operator==(const Sent&) const = default;
};

TEST(RetryCore, BackoffGapsDoubleUpToTheCap) {
  RetrySender<int> sender(/*initial_gap=*/3, /*gap_cap=*/20);
  EXPECT_EQ(sender.add(7, /*due=*/5), 1u);
  std::vector<std::int64_t> ticks;
  for (std::int64_t now = 0; now <= 120; ++now) {
    sender.for_due(
        now, [&](std::uint32_t, int item, int) {
          EXPECT_EQ(item, 7);
          ticks.push_back(now);
        },
        [](std::uint32_t, int, int) { ADD_FAILURE() << "no budget"; });
  }
  // Gap k after the first transmission is min(3 * 2^k, 20) ticks.
  EXPECT_EQ(ticks, (std::vector<std::int64_t>{5, 8, 14, 26, 46, 66, 86, 106}));
  EXPECT_EQ(sender.size(), 1u);
}

TEST(RetryCore, BudgetAbandonsInSequenceOrderWithTransmissionCounts) {
  RetrySender<char> sender(/*initial_gap=*/1, /*gap_cap=*/4, /*budget=*/3);
  sender.add('a', 0);
  sender.add('b', 0);
  sender.add('c', 2);
  std::vector<Sent> sends;
  std::vector<Sent> abandoned;
  for (std::int64_t now = 0; now < 40; ++now) {
    sender.for_due(
        now,
        [&](std::uint32_t seq, char, int sent) {
          sends.push_back({now, seq, sent});
        },
        [&](std::uint32_t seq, char, int sent) {
          abandoned.push_back({now, seq, sent});
        });
  }
  // Transmissions at 0, 1, 3 (gaps 1, 2); abandoned when the 4th falls due.
  EXPECT_EQ(abandoned, (std::vector<Sent>{{7, 1, 3}, {7, 2, 3}, {9, 3, 3}}));
  EXPECT_EQ(sends.size(), 9u);
  EXPECT_EQ(sends[0], (Sent{0, 1, 0}));
  EXPECT_EQ(sends[1], (Sent{0, 2, 0}));  // ascending seq within one tick
  EXPECT_EQ(sends[8], (Sent{5, 3, 2}));
  EXPECT_EQ(sender.size(), 0u);
}

TEST(RetryCore, DropIfRemovesOnlyMatchingSends) {
  RetrySender<int> sender(2, 8);
  for (int item = 1; item <= 5; ++item) sender.add(item, 0);
  EXPECT_EQ(sender.drop_if([](int item) { return item % 2 == 0; }), 2u);
  EXPECT_EQ(sender.size(), 3u);
  std::vector<int> items;
  sender.for_due(0, [&](std::uint32_t, int item, int) { items.push_back(item); },
                 [](std::uint32_t, int, int) {});
  EXPECT_EQ(items, (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(sender.drop_if([](int) { return false; }), 0u);
}

TEST(RetryCore, AckForUnknownOrDroppedSeqLeavesLaterSendsPending) {
  RetrySender<int> sender(2, 8);
  const std::uint32_t first = sender.add(1, 0);
  const std::uint32_t second = sender.add(2, 0);
  const std::uint32_t third = sender.add(3, 0);
  EXPECT_EQ(sender.drop_if([](int item) { return item == 1; }), 1u);

  EXPECT_FALSE(sender.ack(first));  // dropped earlier
  EXPECT_FALSE(sender.ack(0));      // never handed out
  EXPECT_FALSE(sender.ack(third + 1));
  EXPECT_EQ(sender.size(), 2u);

  EXPECT_TRUE(sender.ack(second));
  EXPECT_FALSE(sender.ack(second));  // already settled
  ASSERT_EQ(sender.size(), 1u);
  std::vector<std::uint32_t> seqs;
  sender.for_due(0, [&](std::uint32_t seq, int, int) { seqs.push_back(seq); },
                 [](std::uint32_t, int, int) {});
  EXPECT_EQ(seqs, (std::vector<std::uint32_t>{third}));
  EXPECT_EQ(sender.next_seq(), third + 1);
}

TEST(RetryCore, DedupWindowFloorUnderReorderingDuplicatesAndReset) {
  DedupWindow window;
  EXPECT_FALSE(window.accept(0));  // numbering starts at 1
  EXPECT_TRUE(window.accept(1));
  EXPECT_TRUE(window.accept(4));   // ahead of a gap: held above the floor
  EXPECT_TRUE(window.accept(3));
  EXPECT_EQ(window.floor(), 1u);
  EXPECT_FALSE(window.accept(1));  // duplicate at the floor
  EXPECT_FALSE(window.accept(4));  // duplicate above the floor
  EXPECT_TRUE(window.accept(2));   // fills the gap: the floor absorbs 3 and 4
  EXPECT_EQ(window.floor(), 4u);
  EXPECT_FALSE(window.accept(3));  // duplicate below the floor
  EXPECT_TRUE(window.accept(5));
  EXPECT_EQ(window.floor(), 5u);

  window.reset();
  EXPECT_EQ(window.floor(), 0u);
  EXPECT_TRUE(window.accept(2));  // a fresh sequence space reuses numbers
  EXPECT_TRUE(window.accept(1));
  EXPECT_FALSE(window.accept(2));
  EXPECT_EQ(window.floor(), 2u);
}

// ---------------------------------------------------------------------------
// ReliableChannel

TEST(ReliableChannel, EventualDeliveryUnderHeavyLoss) {
  FaultPlan plan;
  plan.with_loss(0.5);
  FaultInjector injector(plan, support::Rng(31));
  sim::WorkMeter meter;
  ReliableChannel<Probe> channel(&meter, &injector);
  const int count = 50;
  for (int i = 0; i < count; ++i) {
    channel.send(static_cast<sim::NodeId>(i % 4),
                 static_cast<sim::NodeId>(4 + (i % 4)), Probe{i}, 32);
  }
  std::vector<int> received;
  int guard = 0;
  while (channel.pending_count() > 0 && guard++ < 500) {
    channel.step();
    for (sim::NodeId node = 0; node < 8; ++node) {
      for (const auto& envelope : channel.receive(node)) {
        received.push_back(envelope.payload.tag);
      }
    }
  }
  EXPECT_EQ(channel.pending_count(), 0u);
  std::sort(received.begin(), received.end());
  ASSERT_EQ(received.size(), static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
  EXPECT_GT(channel.counters().retransmissions, 0u);
  for (const auto& round : meter.history()) {
    EXPECT_TRUE(round.conserved());
  }
}

TEST(ReliableChannel, AtMostOnceUnderDuplicationLossAndReordering) {
  FaultPlan plan;
  plan.with_loss(0.25).with_duplication(0.4).with_delay(0.3, 2)
      .with_reordering();
  FaultInjector injector(plan, support::Rng(41));
  ReliableChannel<Probe> channel(nullptr, &injector);
  const int count = 60;
  for (int i = 0; i < count; ++i) {
    channel.send(static_cast<sim::NodeId>(i % 5),
                 static_cast<sim::NodeId>(5 + (i % 3)), Probe{i}, 16);
  }
  int guard = 0;
  std::size_t delivered = 0;
  while (channel.pending_count() > 0 && guard++ < 500) {
    channel.step();
    for (sim::NodeId node = 0; node < 8; ++node) {
      delivered += channel.receive(node).size();
    }
  }
  EXPECT_EQ(delivered, static_cast<std::size_t>(count));
  EXPECT_EQ(channel.counters().delivered, static_cast<std::uint64_t>(count));
  EXPECT_GT(channel.counters().duplicates_suppressed, 0u);
  // The delivery log holds no (receiver, seq) pair twice.
  EXPECT_TRUE(audit::check_at_most_once(channel.delivery_log()).empty());
}

TEST(ReliableChannel, BackoffDoublesAndCaps) {
  FaultPlan plan;
  plan.with_loss(1.0);  // nothing ever arrives
  FaultInjector injector(plan, support::Rng(51));
  ReliableChannel<Probe> channel(nullptr, &injector);
  channel.send(0, 1, Probe{1}, 8);
  for (int i = 0; i < 50; ++i) channel.step();
  // Initial timeout 2, doubling to the cap of 16: retries fire at rounds
  // 2, 6, 14, 30 and 46.
  EXPECT_EQ(channel.counters().retransmissions, 5u);
  EXPECT_EQ(channel.pending_count(), 1u);
}

TEST(ReliableChannel, RecoversAfterPartitionHeals) {
  FaultPlan plan;
  plan.with_partition({0, 6, 1, 0});  // ticks 0..5, side A = {0}
  FaultInjector injector(plan, support::Rng(71));
  ReliableChannel<Probe> channel(nullptr, &injector);
  channel.send(0, 1, Probe{9}, 8);
  sim::Round delivered_at = -1;
  for (int i = 0; i < 64 && delivered_at < 0; ++i) {
    channel.step();
    if (!channel.receive(1).empty()) delivered_at = channel.round();
    channel.receive(0);  // consume acks
  }
  ASSERT_GE(delivered_at, 0) << "message never crossed the healed partition";
  // Not before the heal; within one capped backoff interval afterwards.
  EXPECT_GE(delivered_at, 6);
  EXPECT_LE(delivered_at, 6 + kReliableBackoffCapRounds + 1);
  // A few more rounds let the final ack travel back and clear the pending.
  for (int i = 0; i < 4 && channel.pending_count() > 0; ++i) {
    channel.step();
    channel.receive(1);
    channel.receive(0);
  }
  EXPECT_EQ(channel.pending_count(), 0u);
  EXPECT_GT(injector.counters().partition_drops, 0u);
}

// ---------------------------------------------------------------------------
// Protocol-level graceful degradation and recovery

TEST(FaultRecovery, ReconfigureUnderNoOpHookMatchesPristine) {
  support::Rng graph_rng(0xBEEF);
  const auto graph = graph::HGraph::random(32, 8, graph_rng);
  churn::ReconfigInput input;
  input.topology = &graph;
  for (std::size_t v = 0; v < 32; ++v) input.members.push_back(100 + v);
  input.leaving.assign(32, false);
  input.joiners.assign(32, {});
  input.joiners[3].push_back(900);

  support::Rng rng_a(0x5EED);
  const auto bare = churn::reconfigure(input, rng_a);

  FaultInjector injector(FaultPlan::none(), support::Rng(1));
  input.fault_hook = &injector;
  support::Rng rng_b(0x5EED);
  const auto hooked = churn::reconfigure(input, rng_b);

  ASSERT_TRUE(bare.success);
  ASSERT_TRUE(hooked.success);
  EXPECT_EQ(bare.rounds, hooked.rounds);
  EXPECT_EQ(bare.new_members, hooked.new_members);
  EXPECT_EQ(bare.max_node_bits_per_round, hooked.max_node_bits_per_round);
}

TEST(FaultRecovery, CrashStopMemberFailsEpochGracefullyAndFreshIdRejoins) {
  support::Rng graph_rng(0xCAFE);
  const auto graph = graph::HGraph::random(16, 8, graph_rng);
  churn::ReconfigInput input;
  input.topology = &graph;
  for (std::size_t v = 0; v < 16; ++v) input.members.push_back(v);
  input.leaving.assign(16, false);
  input.joiners.assign(16, {});

  // Node 5 crash-stops before the epoch: the epoch fails (its messages are
  // gone and the paper's protocol has no tolerance for that) but fails
  // *gracefully* — a failure result, not a crash or a corrupted topology.
  FaultPlan crash_plan;
  crash_plan.with_crash({5, 0, -1});
  FaultInjector injector(crash_plan, support::Rng(2));
  input.fault_hook = &injector;
  input.reliable_settle_rounds = 8;
  support::Rng rng_a(0xD00D);
  const auto crashed = churn::reconfigure(input, rng_a);
  EXPECT_FALSE(crashed.success);
  EXPECT_FALSE(crashed.failure_reason.empty());
  EXPECT_GT(injector.counters().crash_drops, 0u);

  // Recovery protocol: the crashed node restarts with fresh state, so its
  // old id leaves and it rejoins through the join procedure with a new id.
  input.fault_hook = nullptr;
  input.reliable_settle_rounds = 0;
  input.leaving[5] = true;
  input.joiners[2].push_back(500);
  support::Rng rng_b(0xD00D);
  const auto recovered = churn::reconfigure(input, rng_b);
  ASSERT_TRUE(recovered.success);
  EXPECT_EQ(recovered.new_members.size(), 16u);
  EXPECT_TRUE(std::find(recovered.new_members.begin(),
                        recovered.new_members.end(),
                        500) != recovered.new_members.end());
  EXPECT_TRUE(std::find(recovered.new_members.begin(),
                        recovered.new_members.end(),
                        5) == recovered.new_members.end());
}

TEST(FaultRecovery, ReliableEpochSurvivesLossThatKillsBareEpoch) {
  const double loss = 0.02;
  const auto run_epoch = [&](sim::Round settle_rounds) {
    FaultPlan plan;
    plan.with_loss(loss);
    FaultInjector injector(plan, support::Rng(99));
    churn::ChurnOverlay::Config config;
    config.initial_size = 64;
    config.degree = 8;
    config.seed = 0xABCD;
    config.fault_hook = &injector;
    config.reliable_settle_rounds = settle_rounds;
    churn::ChurnOverlay overlay(config);
    adversary::NoChurn no_churn;
    return overlay.run_epoch(no_churn);
  };
  const auto bare = run_epoch(0);
  const auto reliable = run_epoch(16);
  EXPECT_FALSE(bare.success)
      << "2% loss should break the paper's loss-free one-round phases";
  EXPECT_TRUE(reliable.success) << reliable.failure_reason;
  EXPECT_TRUE(reliable.connected);
  // Reliability costs rounds: the settle loops retransmit until acked.
  EXPECT_GT(reliable.rounds, bare.rounds);
}

}  // namespace
}  // namespace reconfnet::fault
