// Transport backend coverage (DESIGN.md §15): wire codec round-trips, the
// reliable link's delivery/dedup/abandon machinery, seeded datagram fuzzing,
// fault-plan mangler determinism, scenario parsing, and the in-process
// deployment of the per-node protocol: bit-exact parity with
// dos::run_node_level_epoch when fault-free, and graceful convergence (or
// bounded degradation, never a wedge) under scripted kills, partitions and
// restarts. A threaded live-UDP smoke run closes the loop on real sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <ranges>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dos/group_table.hpp"
#include "dos/node_sim.hpp"
#include "support/rng.hpp"
#include "transport/clock.hpp"
#include "transport/inproc.hpp"
#include "transport/live_runtime.hpp"
#include "transport/mangler.hpp"
#include "transport/reliable_link.hpp"
#include "transport/scenario.hpp"
#include "transport/udp.hpp"
#include "transport/wire.hpp"

namespace reconfnet::transport {
namespace {

// --- wire codec -------------------------------------------------------------

Message sample_candidate() {
  Message msg;
  msg.kind = MsgKind::kCandidate;
  msg.round = 17;
  msg.epoch = 2;
  msg.attempt = 1;
  msg.supernode = 5;
  msg.state.seq = 9;
  msg.state.blocks = {{1, 2, 3}, {}, {42}};
  SuperMsg super;
  super.src = 5;
  super.dest = 4;
  super.seq = 9;
  super.index = 7;
  super.is_request = true;
  super.req_requester = 11;
  super.req_j = 2;
  msg.outbox.push_back(super);
  return msg;
}

TEST(Wire, RoundTripsEveryField) {
  const Message msg = sample_candidate();
  std::vector<std::uint8_t> bytes;
  encode(msg, bytes);
  EXPECT_EQ(bytes.size(), encoded_bytes(msg));

  Message back;
  ASSERT_TRUE(decode(bytes, back));
  EXPECT_EQ(back.kind, msg.kind);
  EXPECT_EQ(back.round, msg.round);
  EXPECT_EQ(back.epoch, msg.epoch);
  EXPECT_EQ(back.attempt, msg.attempt);
  EXPECT_EQ(back.supernode, msg.supernode);
  EXPECT_EQ(back.state.seq, msg.state.seq);
  EXPECT_EQ(back.state.blocks, msg.state.blocks);
  ASSERT_EQ(back.outbox.size(), 1u);
  EXPECT_EQ(back.outbox[0].dest, 4u);
  EXPECT_TRUE(back.outbox[0].is_request);
}

TEST(Wire, RoundTripsTableAndLookupFrames) {
  Message msg;
  msg.kind = MsgKind::kTableFrag;
  msg.round = 3;
  msg.table.push_back(TableEntry{1, {4, 5, 6}});
  msg.table.push_back(TableEntry{2, {7}});
  std::vector<std::uint8_t> bytes;
  encode(msg, bytes);
  Message back;
  ASSERT_TRUE(decode(bytes, back));
  ASSERT_EQ(back.table.size(), 2u);
  EXPECT_EQ(back.table[0].members, (std::vector<sim::NodeId>{4, 5, 6}));
  EXPECT_EQ(back.table[1].supernode, 2u);

  Message lookup;
  lookup.kind = MsgKind::kLookup;
  lookup.key = 0xDEADBEEFull;
  lookup.origin = 12;
  lookup.supernode = 6;
  encode(lookup, bytes);
  ASSERT_TRUE(decode(bytes, back));
  EXPECT_EQ(back.key, 0xDEADBEEFull);
  EXPECT_EQ(back.origin, 12u);
  EXPECT_EQ(back.supernode, 6u);
}

TEST(Wire, RejectsCorruptedFrames) {
  const Message msg = sample_candidate();
  std::vector<std::uint8_t> bytes;
  encode(msg, bytes);
  Message back;

  auto corrupt = bytes;
  corrupt[0] ^= 0xFF;  // magic
  EXPECT_FALSE(decode(corrupt, back));

  corrupt = bytes;
  corrupt[2] = kWireVersion + 1;
  EXPECT_FALSE(decode(corrupt, back));

  corrupt = bytes;
  corrupt.pop_back();  // truncated body
  EXPECT_FALSE(decode(corrupt, back));

  corrupt = bytes;
  corrupt.push_back(0);  // trailing garbage
  EXPECT_FALSE(decode(corrupt, back));

  EXPECT_FALSE(decode(std::vector<std::uint8_t>{}, back));
}

/// The u64 whose little-endian bytes are first, first + 1, ..., first + 7.
/// With every byte of a field distinct, a width or byte-order slip changes
/// the encoding even when encode and decode make the same slip.
constexpr std::uint64_t distinct(std::uint8_t first) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(first + i);
  }
  return v;
}

SuperMsg golden_super() {
  SuperMsg super;
  super.src = distinct(0x58);
  super.dest = distinct(0x60);
  super.seq = static_cast<std::int32_t>(distinct(0x68));
  super.index = static_cast<std::uint32_t>(distinct(0x6C));
  super.is_request = true;
  super.req_requester = distinct(0x70);
  super.req_j = static_cast<std::int32_t>(distinct(0x78));
  super.resp_vertex = distinct(0x80);
  super.resp_j = static_cast<std::int32_t>(distinct(0x88));
  super.resp_ok = false;
  return super;
}

SamplerState golden_state() {
  SamplerState state;
  state.seq = static_cast<std::int32_t>(distinct(0x38));
  state.blocks = {{distinct(0x40)}, {}, {distinct(0x48), distinct(0x50)}};
  return state;
}

/// One frame of `kind` with every field the codec serializes for it set.
Message golden(MsgKind kind) {
  Message msg;
  msg.kind = kind;
  msg.round = static_cast<sim::Round>(distinct(0x10));
  msg.epoch = static_cast<std::int64_t>(distinct(0x18));
  msg.attempt = static_cast<std::int32_t>(distinct(0x20));
  switch (kind) {
    case MsgKind::kHeartbeat:
      msg.epoch_start = static_cast<std::int64_t>(distinct(0x28));
      break;
    case MsgKind::kCandidate:
      msg.supernode = distinct(0x30);
      msg.state = golden_state();
      msg.outbox = {golden_super()};
      break;
    case MsgKind::kStateBroadcast:
      msg.supernode = distinct(0x30);
      msg.state = golden_state();
      break;
    case MsgKind::kSuper:
      msg.super = golden_super();
      break;
    case MsgKind::kAssign:
      msg.supernode = distinct(0x30);
      msg.assigned = distinct(0x90);
      break;
    case MsgKind::kNewGroup:
    case MsgKind::kNeighborGroup:
      msg.supernode = distinct(0x30);
      msg.group = {distinct(0x98), distinct(0xA0)};
      break;
    case MsgKind::kTableFrag:
      msg.table = {TableEntry{distinct(0xA8), {distinct(0xB0)}},
                   TableEntry{distinct(0xB8), {}}};
      break;
    case MsgKind::kCommitVote:
      msg.supernode = distinct(0x30);
      msg.complete = true;
      break;
    case MsgKind::kLookup:
      msg.key = distinct(0xC0);
      msg.origin = distinct(0xC8);
      msg.supernode = distinct(0x30);
      break;
    case MsgKind::kLookupReply:
      msg.key = distinct(0xC0);
      msg.origin = distinct(0xC8);
      break;
  }
  return msg;
}

constexpr int kMsgKinds = static_cast<int>(MsgKind::kLookupReply) + 1;

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

TEST(Wire, GoldenBytesForEveryKind) {
  // Produced by an independent byte-at-a-time encoder, so a slip made the
  // same way in encode and decode still fails here. The header (magic 4352,
  // version, kind, round, epoch, attempt, body length), then the body, every
  // field little-endian.
  const char* const kGolden[kMsgKinds] = {
      // kHeartbeat
      "43520100101112131415161718191a1b1c1d1e1f202122230800000028292a2b"
      "2c2d2e2f",
      // kCandidate
      "43520101101112131415161718191a1b1c1d1e1f202122236700000030313233"
      "3435363738393a3b03010000004041424344454647000000000200000048494a"
      "4b4c4d4e4f50515253545556570100000058595a5b5c5d5e5f60616263646566"
      "6768696a6b6c6d6e6f01707172737475767778797a7b80818283848586878889"
      "8a8b00",
      // kStateBroadcast
      "43520102101112131415161718191a1b1c1d1e1f202122233100000030313233"
      "3435363738393a3b03010000004041424344454647000000000200000048494a"
      "4b4c4d4e4f5051525354555657",
      // kSuper
      "43520103101112131415161718191a1b1c1d1e1f202122233200000058595a5b"
      "5c5d5e5f606162636465666768696a6b6c6d6e6f01707172737475767778797a"
      "7b808182838485868788898a8b00",
      // kAssign
      "43520104101112131415161718191a1b1c1d1e1f202122231000000030313233"
      "343536379091929394959697",
      // kNewGroup
      "43520105101112131415161718191a1b1c1d1e1f202122231c00000030313233"
      "343536370200000098999a9b9c9d9e9fa0a1a2a3a4a5a6a7",
      // kNeighborGroup
      "43520106101112131415161718191a1b1c1d1e1f202122231c00000030313233"
      "343536370200000098999a9b9c9d9e9fa0a1a2a3a4a5a6a7",
      // kTableFrag
      "43520107101112131415161718191a1b1c1d1e1f202122232400000002000000"
      "a8a9aaabacadaeaf01000000b0b1b2b3b4b5b6b7b8b9babbbcbdbebf00000000",
      // kCommitVote
      "43520108101112131415161718191a1b1c1d1e1f202122230900000030313233"
      "3435363701",
      // kLookup
      "43520109101112131415161718191a1b1c1d1e1f2021222318000000c0c1c2c3"
      "c4c5c6c7c8c9cacbcccdcecf3031323334353637",
      // kLookupReply
      "4352010a101112131415161718191a1b1c1d1e1f2021222310000000c0c1c2c3"
      "c4c5c6c7c8c9cacbcccdcecf",
  };
  std::vector<std::uint8_t> bytes;
  for (int k = 0; k < kMsgKinds; ++k) {
    const Message msg = golden(static_cast<MsgKind>(k));
    const std::vector<std::uint8_t> expected = from_hex(kGolden[k]);
    encode(msg, bytes);
    EXPECT_EQ(bytes, expected) << "kind " << k;
    EXPECT_EQ(encoded_bytes(msg), expected.size()) << "kind " << k;
    Message back;
    ASSERT_TRUE(decode(expected, back)) << "kind " << k;
    EXPECT_EQ(back, msg) << "kind " << k;
  }
}

// --- link layer -------------------------------------------------------------

/// One link datagram: the header for (op, from, seq) followed by `payload`.
std::vector<std::uint8_t> link_datagram(LinkOp op, sim::NodeId from,
                                        std::uint32_t seq,
                                        std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> datagram;
  encode_link_header({op, from, 0, seq}, datagram);
  datagram.insert(datagram.end(), payload.begin(), payload.end());
  return datagram;
}

TEST(Link, HeaderRoundTripAndValidation) {
  LinkHeader header;
  header.op = LinkOp::kReliable;
  header.from = 42;
  header.incarnation = 3;
  header.seq = 77;
  std::vector<std::uint8_t> buffer;
  encode_link_header(header, buffer);
  // magic "RL", version, op, then from, incarnation and seq, little-endian.
  EXPECT_EQ(buffer, (std::vector<std::uint8_t>{0x52, 0x4C, 1, 1, 42, 0, 0, 0,
                                               0, 0, 0, 0, 3, 0, 0, 0, 77, 0,
                                               0, 0}));

  LinkHeader back;
  ASSERT_TRUE(decode_link_header(buffer, back));
  EXPECT_EQ(back.op, LinkOp::kReliable);
  EXPECT_EQ(back.from, 42u);
  EXPECT_EQ(back.incarnation, 3u);
  EXPECT_EQ(back.seq, 77u);

  EXPECT_FALSE(decode_link_header(
      std::span<const std::uint8_t>(buffer).first(kLinkHeaderBytes - 1),
      back));
  buffer[0] ^= 0xFF;
  EXPECT_FALSE(decode_link_header(buffer, back));
  encode_link_header(header, buffer);
  buffer[3] = 9;  // op out of range
  EXPECT_FALSE(decode_link_header(buffer, back));
}

TEST(Link, RetransmitsUntilAckedWithBackoff) {
  ReliableLink link(/*self=*/0, /*incarnation=*/0);

  const std::vector<std::uint8_t> payload = {1, 2, 3};
  const std::uint32_t seq = link.stage(payload, 0, /*tag=*/5);
  std::vector<std::int64_t> tags;
  int sends = 0;
  const auto count = [&](std::span<const std::uint8_t> bytes,
                         std::uint32_t, std::int64_t tag) {
    ++sends;
    tags.push_back(tag);
    EXPECT_EQ(bytes.size(), kLinkHeaderBytes + payload.size());
  };
  link.for_due(0, count);        // first transmission
  link.for_due(20'000, count);   // not due yet
  link.for_due(40'000, count);   // 1st retransmit (timeout 40 ms)
  link.for_due(100'000, count);  // not due (backoff doubled to 80 ms)
  link.for_due(120'000, count);  // 2nd retransmit
  EXPECT_EQ(sends, 3);
  EXPECT_EQ(tags, (std::vector<std::int64_t>{5, 5, 5}));
  EXPECT_EQ(link.counters().retransmits, 2u);

  link.on_ack(seq, 0);
  EXPECT_EQ(link.pending(), 0u);
  link.for_due(4'000'000, count);
  EXPECT_EQ(sends, 3);
  EXPECT_EQ(link.counters().acked, 1u);
}

TEST(Link, AbandonsAfterRetryBudget) {
  ReliableLink link(0, 0);
  link.stage(std::vector<std::uint8_t>{9}, 0);

  int sends = 0;
  const auto count = [&](std::span<const std::uint8_t>, std::uint32_t,
                         std::int64_t) { ++sends; };
  for (std::int64_t now = 0; now < 10'000'000; now += kLinkInitialTimeoutUs) {
    link.for_due(now, count);
  }
  EXPECT_EQ(sends, kLinkMaxTransmissions);
  EXPECT_EQ(link.counters().abandoned, 1u);
  EXPECT_EQ(link.pending(), 0u);
}

TEST(Link, CancelStaleDropsOnlyOlderTags) {
  ReliableLink link(0, 0);
  link.stage(std::vector<std::uint8_t>{1}, 0, /*tag=*/4);
  link.stage(std::vector<std::uint8_t>{2}, 0, /*tag=*/5);
  link.stage(std::vector<std::uint8_t>{3}, 0, /*tag=*/6);
  ASSERT_EQ(link.pending(), 3u);

  // Advancing to round 6 gives up on everything sent before it — the live
  // analog of the simulator dropping frames a dead round could not deliver.
  EXPECT_EQ(link.cancel_stale(6), 2u);
  EXPECT_EQ(link.pending(), 1u);
  EXPECT_EQ(link.counters().canceled, 2u);

  // The surviving frame still (re)transmits with its own tag.
  std::vector<std::int64_t> tags;
  link.for_due(0, [&](std::span<const std::uint8_t>, std::uint32_t,
                      std::int64_t tag) { tags.push_back(tag); });
  EXPECT_EQ(tags, (std::vector<std::int64_t>{6}));
}

TEST(Link, ReceiverDeduplicatesAndAcksEverything) {
  ReliableLink link(0, 0);
  EXPECT_TRUE(link.on_data(1, 0));
  EXPECT_TRUE(link.on_data(3, 0));   // out of order
  EXPECT_FALSE(link.on_data(1, 0));  // duplicate below/at floor
  EXPECT_FALSE(link.on_data(3, 0));  // duplicate above floor
  EXPECT_TRUE(link.on_data(2, 0));   // fills the gap, floor advances to 3
  EXPECT_FALSE(link.on_data(2, 0));

  std::vector<std::uint32_t> acks;
  link.drain_acks([&](std::uint32_t seq) { acks.push_back(seq); });
  EXPECT_EQ(acks, (std::vector<std::uint32_t>{1, 3, 1, 3, 2, 2}));
  EXPECT_EQ(link.counters().delivered, 3u);
  EXPECT_EQ(link.counters().duplicates, 3u);
}

TEST(Link, IncarnationBumpResetsDedupAndStaleAcksAreIgnored) {
  ReliableLink link(0, /*incarnation=*/1);
  EXPECT_TRUE(link.on_data(1, 0));
  EXPECT_TRUE(link.on_data(2, 0));
  // The peer restarted: its fresh life reuses low sequence numbers.
  EXPECT_TRUE(link.on_data(1, 1));
  EXPECT_EQ(link.peer_incarnation(), 1u);
  // Data from the dead previous life is dropped without an ack.
  EXPECT_FALSE(link.on_data(7, 0));
  EXPECT_EQ(link.counters().stale_incarnation, 1u);

  // Sender half: an ack addressed to OUR previous life must not consume the
  // fresh sequence space.
  const std::uint32_t seq = link.stage(std::vector<std::uint8_t>{1}, 0);
  link.on_ack(seq, 0);  // stale incarnation (ours is 1)
  EXPECT_EQ(link.pending(), 1u);
  link.on_ack(seq, 1);
  EXPECT_EQ(link.pending(), 0u);
}

// --- mangler + scenarios ----------------------------------------------------

TEST(Mangler, CrashAndPartitionWindowsArePureAndScripted) {
  fault::FaultPlan plan;
  plan.with_crash({/*node=*/3, /*at=*/10, /*restart=*/20});
  plan.with_crash({/*node=*/5, /*at=*/15, /*restart=*/-1});
  fault::PartitionEvent cut;
  cut.start = 4;
  cut.heal = 8;
  cut.id_below = 8;
  plan.with_partition(cut);
  PacketMangler mangler(plan, /*salt=*/1);

  EXPECT_FALSE(mangler.is_crashed(3, 9));
  EXPECT_TRUE(mangler.is_crashed(3, 10));
  EXPECT_TRUE(mangler.is_crashed(3, 19));
  EXPECT_FALSE(mangler.is_crashed(3, 20));  // restarted
  EXPECT_TRUE(mangler.is_crashed(5, 1000)); // crash-stop: down forever

  EXPECT_FALSE(mangler.partitioned(1, 9, 3));
  EXPECT_TRUE(mangler.partitioned(1, 9, 4));
  EXPECT_TRUE(mangler.partitioned(9, 1, 7));   // symmetric
  EXPECT_FALSE(mangler.partitioned(1, 2, 5));  // same side
  EXPECT_FALSE(mangler.partitioned(1, 9, 8));  // healed

  // drop() composes the windows: sender crashed, receiver down next round,
  // or the cut between them.
  EXPECT_TRUE(mangler.drop(3, 1, 12, 0));   // sender down
  EXPECT_TRUE(mangler.drop(1, 3, 9, 0));    // receiver down at delivery
  EXPECT_TRUE(mangler.drop(1, 9, 5, 0));    // partitioned
  EXPECT_FALSE(mangler.drop(1, 2, 5, 0));
}

TEST(Mangler, LossDrawsFreshCoinPerAttempt) {
  fault::FaultPlan plan;
  plan.with_loss(0.5);
  PacketMangler mangler(plan, 7);
  PacketMangler again(plan, 7);

  int dropped = 0;
  int disagreements = 0;
  for (std::uint32_t attempt = 0; attempt < 64; ++attempt) {
    const bool a = mangler.drop(1, 2, 5, attempt);
    if (a) ++dropped;
    if (a != again.drop(1, 2, 5, attempt)) ++disagreements;
  }
  EXPECT_EQ(disagreements, 0);  // pure in (endpoints, round, attempt)
  EXPECT_GT(dropped, 8);        // p = 0.5: both outcomes well represented
  EXPECT_LT(dropped, 56);
}

TEST(Scenario, ParsesPlansAndCanonicalizesNames) {
  const auto plan = parse_plan("kill2,partition1", 64, 30);
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].node, 21u);
  EXPECT_EQ(plan.crashes[0].at, 33);
  EXPECT_LT(plan.crashes[0].restart, 0);
  EXPECT_EQ(plan.crashes[1].node, 42u);
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_EQ(plan.partitions[0].id_below, 32u);

  EXPECT_EQ(canonical_plan_name("kill2,partition1"), "kill2+partition1");
  EXPECT_EQ(canonical_plan_name(""), "none");
  EXPECT_EQ(canonical_plan_name("none"), "none");
  EXPECT_TRUE(parse_plan("none", 64, 30).crashes.empty());
  EXPECT_THROW((void)parse_plan("kill9", 64, 30), std::invalid_argument);
}

// --- in-process deployment --------------------------------------------------

InprocDeploymentConfig small_deployment(int epochs, bool smoke) {
  InprocDeploymentConfig config;
  config.nodes = 64;
  config.dimension = 3;
  config.protocol.epochs = epochs;
  config.protocol.dht_smoke = smoke;
  return config;
}

TEST(InprocDeployment, FaultFreeRunMatchesNodeSimExactly) {
  auto config = small_deployment(/*epochs=*/1, /*smoke=*/false);
  InprocDeployment deployment(config);

  // Ground truth: the monolithic node_sim epoch over the same initial table
  // with the same seed (NodeProtocol replays its exact rng split order).
  support::Rng rng(config.protocol.seed);
  const auto report = dos::run_node_level_epoch(deployment.initial_table(),
                                                {}, {}, rng);
  ASSERT_TRUE(report.success) << report.failure_reason;
  ASSERT_TRUE(report.new_groups.has_value());

  const auto result = deployment.run();
  EXPECT_TRUE(result.all_live_finished);
  EXPECT_EQ(result.finished, config.nodes);

  const dos::GroupTable& expected = *report.new_groups;
  for (int id = 0; id < config.nodes; ++id) {
    const dos::GroupTable& got =
        deployment.node(static_cast<sim::NodeId>(id)).table();
    ASSERT_EQ(got.supernodes(), expected.supernodes()) << "node " << id;
    for (std::uint64_t x = 0; x < expected.supernodes(); ++x) {
      EXPECT_EQ(got.group(x), expected.group(x))
          << "node " << id << " group " << x;
    }
    EXPECT_EQ(deployment.node(static_cast<sim::NodeId>(id))
                  .metrics()
                  .epochs_completed,
              1);
  }
}

TEST(InprocDeployment, SurvivesKillsAndPartition) {
  auto config = small_deployment(/*epochs=*/3, /*smoke=*/true);
  {
    InprocDeployment probe(config);
    config.plan = parse_plan("kill2,partition1", config.nodes,
                             probe.node(0).epoch_rounds());
  }
  InprocDeployment deployment(config);
  const auto report = deployment.run();
  EXPECT_TRUE(report.all_live_finished);
  EXPECT_EQ(report.crashed_forever, 2);
  EXPECT_EQ(report.finished, config.nodes - 2);

  for (int id = 0; id < config.nodes; ++id) {
    const auto node = static_cast<sim::NodeId>(id);
    if (id == 21 || id == 42) continue;  // the kill2 victims
    const auto& metrics = deployment.node(node).metrics();
    EXPECT_EQ(metrics.epochs_completed, 3) << "node " << id;
    EXPECT_TRUE(metrics.lookup_ok) << "node " << id;
  }
}

TEST(InprocDeployment, WholeGroupKillAbortsEpochAndFallsBack) {
  auto config = small_deployment(/*epochs=*/1, /*smoke=*/false);
  config.protocol.max_attempts = 2;
  // Kill every member of the initial group of supernode 0 before the epoch
  // can finish: the survivors must abort (group silence / missing data),
  // fall back to the previous configuration, exhaust the retry budget and
  // still terminate cleanly.
  InprocDeployment probe(config);
  for (const sim::NodeId member : probe.initial_table().group(0)) {
    config.plan.with_crash({member, /*at=*/2, /*restart=*/-1});
  }
  InprocDeployment deployment(config);
  const auto report = deployment.run();
  EXPECT_TRUE(report.all_live_finished);

  const auto killed = static_cast<int>(config.plan.crashes.size());
  EXPECT_EQ(report.crashed_forever, killed);
  bool any_fallback = false;
  for (int id = 0; id < config.nodes; ++id) {
    const auto node = static_cast<sim::NodeId>(id);
    bool is_victim = false;
    for (const fault::CrashEvent& event : config.plan.crashes) {
      if (event.node == node) is_victim = true;
    }
    if (is_victim) continue;
    const auto& metrics = deployment.node(node).metrics();
    EXPECT_TRUE(metrics.finished) << "node " << id;
    EXPECT_EQ(metrics.epochs_completed, 0) << "node " << id;
    EXPECT_EQ(metrics.epochs_failed, 1) << "node " << id;
    if (metrics.fallbacks > 0) any_fallback = true;
  }
  EXPECT_TRUE(any_fallback);
}

TEST(InprocDeployment, CrashWithRestartRejoinsWithinTheEpoch) {
  auto config = small_deployment(/*epochs=*/1, /*smoke=*/false);
  // One node reboots early in the (long) sampler phase: it comes back with a
  // fresh protocol instance, resyncs off the state broadcasts, and still
  // completes the epoch with everyone else.
  config.plan.with_crash({/*node=*/7, /*at=*/3, /*restart=*/9});
  InprocDeployment deployment(config);
  const auto report = deployment.run();
  EXPECT_TRUE(report.all_live_finished);
  EXPECT_EQ(report.finished, config.nodes);
  EXPECT_EQ(deployment.node(7).metrics().epochs_completed, 1);
  EXPECT_GT(deployment.node(7).metrics().resyncs, 0);
}

// What MetersAndTablePinnedAt128Nodes's deployment produced when every
// destination still got its own copy of each frame.
constexpr sim::Round kPinnedRounds = 46;
constexpr std::uint64_t kPinnedBits = 510376272;
constexpr std::uint64_t kPinnedBitsHash = 0xE4DD53B1BF342568ULL;
constexpr std::uint64_t kPinnedFrames = 461363;
constexpr std::uint64_t kPinnedFramesHash = 0x6889CC524B028DF8ULL;
constexpr std::uint64_t kPinnedDeliveries = 461363;
constexpr std::uint64_t kPinnedTableHash = 0x6B6F4AB7DCA09105ULL;

/// FNV-1a over 64-bit words.
std::uint64_t fnv1a(std::span<const std::uint64_t> words) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const std::uint64_t word : words) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  }
  return hash;
}

TEST(InprocDeployment, MetersAndTablePinnedAt128Nodes) {
  // Per-node meters, hub deliveries and the final table of a 128-node,
  // d = 4 deployment with the DHT smoke phase. How a frame reaches its
  // destinations must change none of them.
  InprocDeploymentConfig config;
  config.nodes = 128;
  config.dimension = 4;
  config.protocol.epochs = 2;
  config.protocol.dht_smoke = true;
  InprocDeployment deployment(config);
  const auto report = deployment.run();
  ASSERT_TRUE(report.all_live_finished);
  EXPECT_EQ(report.rounds, kPinnedRounds);

  std::vector<std::uint64_t> bits_sent;
  std::vector<std::uint64_t> frames_sent;
  for (int id = 0; id < config.nodes; ++id) {
    const auto& metrics =
        deployment.node(static_cast<sim::NodeId>(id)).metrics();
    bits_sent.push_back(metrics.bits_sent);
    frames_sent.push_back(metrics.frames_sent);
  }
  std::uint64_t deliveries = 0;
  for (const auto& round : deployment.hub().meter().history()) {
    deliveries += round.total_messages;
  }
  std::vector<std::uint64_t> table;
  const dos::GroupTable& final_table = deployment.node(0).table();
  for (std::uint64_t x = 0; x < final_table.supernodes(); ++x) {
    table.push_back(x);
    for (const sim::NodeId id : final_table.group(x)) table.push_back(id);
  }
  EXPECT_EQ(std::accumulate(bits_sent.begin(), bits_sent.end(),
                            std::uint64_t{0}),
            kPinnedBits);
  EXPECT_EQ(fnv1a(bits_sent), kPinnedBitsHash);
  EXPECT_EQ(std::accumulate(frames_sent.begin(), frames_sent.end(),
                            std::uint64_t{0}),
            kPinnedFrames);
  EXPECT_EQ(fnv1a(frames_sent), kPinnedFramesHash);
  EXPECT_EQ(deliveries, kPinnedDeliveries);
  EXPECT_EQ(fnv1a(table), kPinnedTableHash);
}

TEST(InprocHub, DropsAndCountsFramesToIdsWithoutAnEndpoint) {
  InprocHub hub({}, 0);
  InprocTransport sender(&hub, 0);
  InprocTransport receiver(&hub, 1);
  const Message msg = golden(MsgKind::kLookupReply);
  sender.send(sim::NodeId{1} << 40, msg);  // what a forged origin names
  sender.send(2, msg);  // a small id with no endpoint
  sender.send(1, msg);
  EXPECT_NO_THROW(hub.step());
  EXPECT_EQ(hub.unroutable_frames(), 2u);
  EXPECT_EQ(sender.counters().datagrams_sent, 1u);
  EXPECT_EQ(hub.meter().history().back().sent_messages, 1u);
  std::vector<sim::Envelope<Message>> inbox;
  receiver.poll(inbox);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].from, 0u);
  EXPECT_EQ(inbox[0].payload, msg);
}

TEST(InprocHub, ArenaRecyclesChunksAndHoldsFramesLargerThanAChunk) {
  // Three rounds of small frames around one frame of 320 kB, larger than
  // an arena chunk: every frame arrives intact in the next round, while
  // the arenas swap and recycle their chunks.
  InprocHub hub({}, 0);
  InprocTransport a(&hub, 0);
  InprocTransport b(&hub, 1);
  Message big;
  big.kind = MsgKind::kNewGroup;
  big.supernode = 3;
  big.group.resize(40000);
  std::iota(big.group.begin(), big.group.end(), sim::NodeId{0});
  std::vector<Message> sent;
  for (int k = 0; k < kMsgKinds; ++k) {
    if (k != static_cast<int>(MsgKind::kHeartbeat)) {
      sent.push_back(golden(static_cast<MsgKind>(k)));
    }
  }
  sent.insert(sent.begin() + 4, big);
  std::vector<sim::Envelope<Message>> inbox;
  for (int round = 0; round < 3; ++round) {
    for (Message& msg : sent) msg.round = round;
    for (const Message& msg : sent) a.send(1, msg);
    hub.step();
    inbox.clear();
    b.poll(inbox);
    ASSERT_EQ(inbox.size(), sent.size()) << "round " << round;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(inbox[i].payload, sent[i]) << "round " << round;
    }
  }
  EXPECT_EQ(b.counters().datagrams_received, 3 * sent.size());
  EXPECT_EQ(b.counters().decode_failures, 0u);
}

TEST(InprocHub, ListSendEqualsOneSendPerDestination) {
  // Two hubs under one plan: a partition cuts ids below 3 off from the rest
  // for the first two rounds, loss eats about half of the other copies, and
  // id 9 has no endpoint. One hub gets each frame as one list send, the
  // other once per destination.
  fault::FaultPlan plan;
  plan.with_partition({/*start=*/0, /*heal=*/2, /*id_below=*/3, /*salt=*/0});
  plan.with_loss(0.5);
  constexpr sim::NodeId kEndpoints = 8;
  const std::vector<sim::NodeId> to = {1, 4, 2, 9, 5, 6, 3, 7, 0};
  InprocHub list_hub(plan, 7);
  InprocHub each_hub(plan, 7);
  std::vector<std::unique_ptr<InprocTransport>> list_nodes;
  std::vector<std::unique_ptr<InprocTransport>> each_nodes;
  for (sim::NodeId id = 0; id < kEndpoints; ++id) {
    list_nodes.push_back(std::make_unique<InprocTransport>(&list_hub, id));
    each_nodes.push_back(std::make_unique<InprocTransport>(&each_hub, id));
  }
  Message msg = golden(MsgKind::kNewGroup);
  std::vector<sim::Envelope<Message>> list_inbox;
  std::vector<sim::Envelope<Message>> each_inbox;
  std::uint64_t delivered = 0;
  for (int round = 0; round < 6; ++round) {
    msg.round = round;
    list_nodes[0]->send(to, msg);
    for (const sim::NodeId id : to) each_nodes[0]->send(id, msg);
    list_hub.step();
    each_hub.step();

    std::vector<Frame> locations;
    for (sim::NodeId id = 0; id < kEndpoints; ++id) {
      const auto list_frames = list_hub.inbox(id);
      const auto each_frames = each_hub.inbox(id);
      ASSERT_EQ(list_frames.size(), each_frames.size())
          << "round " << round << " node " << id;
      for (std::size_t i = 0; i < list_frames.size(); ++i) {
        const auto list_bytes = list_hub.bytes(list_frames[i].payload);
        const auto each_bytes = each_hub.bytes(each_frames[i].payload);
        EXPECT_TRUE(std::ranges::equal(list_bytes, each_bytes))
            << "round " << round << " node " << id;
        locations.push_back(list_frames[i].payload);
      }
      list_nodes[id]->poll(list_inbox);
      each_nodes[id]->poll(each_inbox);
      ASSERT_EQ(list_inbox.size(), each_inbox.size());
      for (std::size_t i = 0; i < list_inbox.size(); ++i) {
        EXPECT_EQ(list_inbox[i].from, each_inbox[i].from);
        EXPECT_EQ(list_inbox[i].payload, msg);
        EXPECT_EQ(each_inbox[i].payload, msg);
      }
      delivered += list_inbox.size();
    }
    // Every envelope of the list send points at the one encoded copy.
    for (const Frame& frame : locations) {
      EXPECT_EQ(frame.chunk, locations.front().chunk);
      EXPECT_EQ(frame.offset, locations.front().offset);
      EXPECT_EQ(frame.size, locations.front().size);
    }
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(list_nodes[0]->counters().datagrams_sent, delivered);
  EXPECT_EQ(each_nodes[0]->counters().datagrams_sent, delivered);
  EXPECT_EQ(list_hub.unroutable_frames(), 6u);
  EXPECT_EQ(each_hub.unroutable_frames(), 6u);

  const PacketMangler::Counters& list_drops = list_hub.mangler().counters();
  const PacketMangler::Counters& each_drops = each_hub.mangler().counters();
  EXPECT_GT(list_drops.partition_drops, 0u);
  EXPECT_GT(list_drops.lost, 0u);
  EXPECT_EQ(list_drops.offered, each_drops.offered);
  EXPECT_EQ(list_drops.crash_drops, each_drops.crash_drops);
  EXPECT_EQ(list_drops.partition_drops, each_drops.partition_drops);
  EXPECT_EQ(list_drops.lost, each_drops.lost);

  const auto& list_history = list_hub.meter().history();
  const auto& each_history = each_hub.meter().history();
  ASSERT_EQ(list_history.size(), each_history.size());
  for (std::size_t r = 0; r < list_history.size(); ++r) {
    EXPECT_EQ(list_history[r].round, each_history[r].round);
    EXPECT_EQ(list_history[r].max_node_bits, each_history[r].max_node_bits);
    EXPECT_EQ(list_history[r].total_bits, each_history[r].total_bits);
    EXPECT_EQ(list_history[r].sent_messages, each_history[r].sent_messages);
    EXPECT_EQ(list_history[r].total_messages, each_history[r].total_messages);
  }
}

// --- the outbox -------------------------------------------------------------

TEST(Outbox, IteratesEveryDestinationInEmitOrder) {
  NodeProtocol::Outbox out;
  const Message vote = golden(MsgKind::kCommitVote);
  const Message assign = golden(MsgKind::kAssign);
  const Message group = golden(MsgKind::kNewGroup);
  const std::vector<sim::NodeId> first = {4, 1, 7};
  const std::vector<sim::NodeId> third = {2, 3};
  out.add(first, vote);
  out.emplace_back(5, assign);
  out.add(third, group);

  std::vector<std::pair<sim::NodeId, Message>> pairs;
  std::vector<const Message*> stored;
  for (auto& [to, msg] : out) {
    pairs.emplace_back(to, msg);
    stored.push_back(&msg);
  }
  const std::vector<std::pair<sim::NodeId, Message>> expected = {
      {4, vote}, {1, vote}, {7, vote}, {5, assign}, {2, group}, {3, group}};
  EXPECT_EQ(pairs, expected);
  // One stored Message per frame, shared by all of its destinations.
  ASSERT_EQ(stored.size(), 6u);
  EXPECT_EQ(stored[0], stored[1]);
  EXPECT_EQ(stored[0], stored[2]);
  EXPECT_NE(stored[2], stored[3]);
  EXPECT_NE(stored[3], stored[4]);
  EXPECT_EQ(stored[4], stored[5]);

  std::vector<std::vector<sim::NodeId>> lists;
  std::vector<const Message*> frames;
  for (const auto& [to, msg] : out.frames()) {
    lists.emplace_back(to.begin(), to.end());
    frames.push_back(&msg);
  }
  EXPECT_EQ(lists, (std::vector<std::vector<sim::NodeId>>{
                       {4, 1, 7}, {5}, {2, 3}}));
  EXPECT_EQ(frames, (std::vector<const Message*>{stored[0], stored[3],
                                                 stored[4]}));

  out.clear();
  EXPECT_TRUE(out.begin() == out.end());
  EXPECT_TRUE(std::ranges::empty(out.frames()));
}

// --- forged frames ----------------------------------------------------------
// On the live path frames arrive from outside. A frame that decodes cleanly
// and carries the current epoch/attempt tag, but holds a value a phase
// handler would index with out of range, must be rejected and counted in
// on_round's accept loop before any handler sees it.

constexpr int kForgedDim = 3;

NodeProtocol lone_node() {
  std::vector<sim::NodeId> ids(64);
  std::iota(ids.begin(), ids.end(), sim::NodeId{0});
  support::Rng rng(1);
  return NodeProtocol(0, dos::GroupTable::random(kForgedDim, ids, rng), {});
}

/// P, the sampler's primitive-round count (an attempt is 2P + d + 6 rounds).
int primitive_rounds(const NodeProtocol& node) {
  return (node.epoch_rounds() - kForgedDim - 6) / 2;
}

/// Runs one whole attempt of `node` with empty inboxes, except that
/// `frames` (tagged epoch 0, attempt 0) arrive at round `at`. The attempt
/// spans the reorganization rounds that would use an adopted forged state.
void run_attempt_with(NodeProtocol& node, sim::Round at,
                      const std::vector<Message>& frames) {
  std::vector<sim::Envelope<Message>> forged;
  for (const Message& frame : frames) {
    forged.push_back(sim::Envelope<Message>{1, 0, frame});
  }
  NodeProtocol::Outbox out;
  const sim::Round end = node.epoch_rounds();
  for (sim::Round round = 0; round < end; ++round) {
    const std::span<const sim::Envelope<Message>> inbox =
        round == at ? std::span<const sim::Envelope<Message>>(forged)
                    : std::span<const sim::Envelope<Message>>();
    node.on_round(round, inbox, out, {});
    out.clear();
  }
}

TEST(ForgedFrame, SuperResponseNamingBlockZeroIsRejected) {
  NodeProtocol node = lone_node();
  Message forged;
  forged.kind = MsgKind::kSuper;
  forged.super.seq = 0;  // consumed by the first primitive round
  forged.super.resp_ok = true;
  forged.super.resp_j = 0;  // blocks are numbered 1..d
  // serve()'s answer to a failed extraction, {0, 0, false}, stays legal.
  Message failed = forged;
  failed.super.resp_ok = false;
  run_attempt_with(node, /*at=*/0, {forged, failed});
  EXPECT_EQ(node.metrics().invalid_frames, 1u);
  EXPECT_EQ(node.metrics().resyncs, 0);
}

TEST(ForgedFrame, BroadcastStateWithUnknownSupernodeIsRejected) {
  NodeProtocol node = lone_node();
  const int p = primitive_rounds(node);
  Message forged;
  forged.kind = MsgKind::kStateBroadcast;
  forged.state.seq = p;  // a finished sampler: reorg round A reads block 1
  forged.state.blocks.resize(kForgedDim);
  forged.state.blocks[0].assign(64, std::uint64_t{1} << kForgedDim);
  run_attempt_with(node, /*at=*/2 * p - 2, {forged});
  EXPECT_EQ(node.metrics().invalid_frames, 1u);
  EXPECT_EQ(node.metrics().resyncs, 0);
}

TEST(ForgedFrame, AssignAndLookupNamingUnknownNodesAreRejected) {
  NodeProtocol node = lone_node();
  const int p = primitive_rounds(node);
  const std::uint64_t own = node.table().supernode_of(node.self());
  // Round B would add the assigned id to the fresh group and send it the
  // new group; the home group of a lookup replies to its origin.
  Message unknown_node;
  unknown_node.kind = MsgKind::kAssign;
  unknown_node.supernode = own;
  unknown_node.assigned = sim::NodeId{1} << 40;
  Message unknown_supernode = unknown_node;
  unknown_supernode.supernode = std::uint64_t{1} << kForgedDim;
  unknown_supernode.assigned = 5;
  Message lookup;
  lookup.kind = MsgKind::kLookup;
  lookup.origin = sim::NodeId{1} << 40;
  Message reply = lookup;
  reply.kind = MsgKind::kLookupReply;
  // A legal assignment names a node of the table.
  Message legal = unknown_node;
  legal.assigned = 5;
  run_attempt_with(node, /*at=*/2 * p + 1,
                   {unknown_node, unknown_supernode, lookup, reply, legal});
  EXPECT_EQ(node.metrics().invalid_frames, 4u);
}

TEST(ForgedFrame, TableFragmentAndLookupOutOfRangeAreRejected) {
  NodeProtocol node = lone_node();
  const int p = primitive_rounds(node);
  // A gathered table that completes is committed as the next epoch's
  // groups, so a fragment entry must name a supernode below 2^d and only
  // nodes of the current table; a lookup is forwarded toward its home.
  Message unknown_node;
  unknown_node.kind = MsgKind::kTableFrag;
  unknown_node.table = {TableEntry{0, {1, sim::NodeId{1} << 40}}};
  Message unknown_supernode;
  unknown_supernode.kind = MsgKind::kTableFrag;
  unknown_supernode.table = {
      TableEntry{0, {1}}, TableEntry{std::uint64_t{1} << kForgedDim, {2}}};
  Message lookup;
  lookup.kind = MsgKind::kLookup;
  lookup.origin = 5;
  lookup.supernode = std::uint64_t{1} << kForgedDim;
  // A legal fragment names a supernode and nodes of the table.
  Message legal;
  legal.kind = MsgKind::kTableFrag;
  legal.table = {TableEntry{0, {1, 2}}};
  run_attempt_with(node, /*at=*/2 * p + 4,
                   {unknown_node, unknown_supernode, lookup, legal});
  EXPECT_EQ(node.metrics().invalid_frames, 3u);
}

TEST(NodeProtocol, FirstCopyOfEachSuperMessageWinsInKeyOrder) {
  NodeProtocol node = lone_node();
  const sim::NodeId self = node.self();
  NodeProtocol::Outbox out;
  // Round 0 emits the candidate of primitive round 1. Adopting it in the
  // synchronization round brings the node to seq 1, so round 2 is the
  // response phase of primitive round 2, fed the requests tagged seq 1.
  node.on_round(0, {}, out, {});
  ASSERT_FALSE(out.begin() == out.end());
  const Message candidate = (*out.begin()).second;
  out.clear();
  const std::vector<sim::Envelope<Message>> adopt = {{self, self, candidate}};
  node.on_round(1, adopt, out, {});
  out.clear();

  auto request = [self](std::uint64_t src, std::uint32_t index,
                        std::uint64_t requester) {
    Message msg;
    msg.kind = MsgKind::kSuper;
    msg.round = 1;
    msg.super.src = src;
    msg.super.seq = 1;
    msg.super.index = index;
    msg.super.is_request = true;
    msg.super.req_requester = requester;
    msg.super.req_j = 1;
    return sim::Envelope<Message>{2, self, msg};
  };
  // Out of key order, and a forged copy of (5, 0) and of (2, 1) after the
  // genuine ones.
  const std::vector<sim::Envelope<Message>> inbox = {
      request(5, 0, 5), request(2, 1, 2), request(2, 0, 1), request(5, 0, 7),
      request(2, 1, 6)};
  node.on_round(2, inbox, out, {});

  // advance() answers every request it is fed, in order, with a response
  // addressed to the requester; the candidate carries those responses.
  const Message* next = nullptr;
  for (const auto& [to, msg] : out.frames()) {
    if (msg.kind == MsgKind::kCandidate) next = &msg;
  }
  ASSERT_NE(next, nullptr);
  std::vector<std::uint64_t> answered;
  for (const SuperMsg& response : next->outbox) {
    answered.push_back(response.dest);
  }
  EXPECT_EQ(answered, (std::vector<std::uint64_t>{1, 2, 5}));
}

// --- datagram fuzz ----------------------------------------------------------
// A forged or corrupted datagram must never crash a node. The corpus is every
// distinct frame one node emits over an attempt plus the runtime's heartbeat
// of each round, wrapped as unreliable, reliable and ack datagrams. A fixed
// seed mutates each copy before it reaches a never-opened UdpTransport, and
// whatever poll() releases goes on to NodeProtocol::on_round.

/// Applies one to three seeded mutations: bit flips, byte overwrites,
/// truncation, extension, and extreme 4- or 8-byte values.
void mutate(std::vector<std::uint8_t>& bytes, support::Rng& rng) {
  for (auto edits = 1 + rng.below(3); edits > 0 && !bytes.empty(); --edits) {
    const auto at = static_cast<std::size_t>(rng.below(bytes.size()));
    switch (rng.below(6)) {
      case 0:
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
        break;
      case 1:
        bytes[at] = static_cast<std::uint8_t>(rng.below(256));
        break;
      case 2:
        bytes.resize(at);
        break;
      case 3:
        for (auto extra = 1 + rng.below(16); extra > 0; --extra) {
          bytes.push_back(static_cast<std::uint8_t>(rng.below(256)));
        }
        break;
      default: {
        // 0, the largest and smallest signed value, or all ones.
        const std::size_t width = rng.coin() ? 4 : 8;
        if (bytes.size() < width) break;
        const std::uint64_t top = std::uint64_t{1} << (8 * width - 1);
        const std::uint64_t extremes[] = {0, top - 1, top, top | (top - 1)};
        const std::uint64_t value = extremes[rng.below(4)];
        const auto start =
            static_cast<std::size_t>(rng.below(bytes.size() - width + 1));
        for (std::size_t i = 0; i < width; ++i) {
          bytes[start + i] = static_cast<std::uint8_t>(value >> (8 * i));
        }
      }
    }
  }
}

TEST(DatagramFuzz, MutatedDatagramsNeverCrashANode) {
  constexpr int kCopies = 64;  // mutated copies per frame and link op
  NodeProtocol sender = lone_node();
  NodeProtocol receiver = lone_node();
  UdpConfig config;
  config.self = receiver.self();
  config.nodes = 64;
  UdpTransport transport(config);  // never opened: socket-free paths only

  support::Rng rng(0xF022);
  std::uint32_t seq = 0;
  std::uint64_t fed = 0;
  std::uint64_t unaccounted = 0;
  std::uint64_t released = 0;
  NodeProtocol::Outbox sent;
  NodeProtocol::Outbox out;
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint8_t> bytes;
  std::vector<sim::Envelope<Message>> inbox;
  for (sim::Round round = 0; round < sender.epoch_rounds(); ++round) {
    sent.clear();
    sender.on_round(round, {}, sent, {});
    Message heartbeat;
    heartbeat.round = round;
    sent.emplace_back(0, heartbeat);
    frames.clear();
    for (const auto& [to, msg] : sent) {
      encode(msg, bytes);
      if (std::find(frames.begin(), frames.end(), bytes) == frames.end()) {
        frames.push_back(bytes);
      }
    }
    // Frames sent in `round` are released by poll() in round + 1.
    transport.advance_round(round + 1);
    for (const auto& frame : frames) {
      for (const LinkOp op : {LinkOp::kUnreliable, LinkOp::kReliable,
                              LinkOp::kAck}) {
        for (int copy = 0; copy < kCopies; ++copy) {
          const auto from = static_cast<sim::NodeId>(1 + rng.below(63));
          bytes = link_datagram(
              op, from, ++seq,
              op == LinkOp::kAck ? std::span<const std::uint8_t>() : frame);
          mutate(bytes, rng);
          const UdpTransport::Counters& c = transport.counters();
          const std::uint64_t seen = c.datagrams_received + c.decode_failures;
          EXPECT_NO_THROW((void)transport.on_datagram(bytes, round));
          if (c.datagrams_received + c.decode_failures == seen) ++unaccounted;
          ++fed;
        }
      }
    }
    transport.tick(round);  // drains the queued acks
    inbox.clear();
    transport.poll(inbox);
    released += inbox.size();
    out.clear();
    EXPECT_NO_THROW(receiver.on_round(round + 1, inbox, out, {}));
  }
  EXPECT_EQ(unaccounted, 0u) << "of " << fed << " datagrams";
  EXPECT_GT(fed, 1000u);
  EXPECT_GT(released, 0u) << "no mutated frame got past decode";
}

TEST(DatagramFuzz, MutatedFramesOfEveryKindDecodeWithinBounds) {
  // Each mutated copy goes to decode in a buffer of exactly its size, so
  // under ASan a read past the end is caught. A frame decode accepts is a
  // Message the codec can write back: same length, and the rewrite decodes
  // to the same Message.
  constexpr int kCopies = 2000;  // mutated copies per kind
  support::Rng rng(0xC0DEC);
  std::vector<std::uint8_t> valid;
  std::vector<std::uint8_t> reencoded;
  Message decoded;
  Message again;
  int accepted = 0;
  for (int k = 0; k < kMsgKinds; ++k) {
    encode(golden(static_cast<MsgKind>(k)), valid);
    for (int copy = 0; copy < kCopies; ++copy) {
      std::vector<std::uint8_t> bytes = valid;
      mutate(bytes, rng);
      const std::vector<std::uint8_t> exact(bytes.begin(), bytes.end());
      if (!decode(exact, decoded)) continue;
      ++accepted;
      encode(decoded, reencoded);
      ASSERT_EQ(reencoded.size(), exact.size()) << "kind " << k;
      ASSERT_TRUE(decode(reencoded, again)) << "kind " << k;
      ASSERT_EQ(again, decoded) << "kind " << k;
    }
  }
  EXPECT_GT(accepted, kCopies) << "too few mutated frames got past decode";
}

// --- live UDP smoke ---------------------------------------------------------

TEST(LiveUdp, SixteenThreadedNodesConvergeAndMatchInproc) {
  constexpr int kNodes = 16;
  constexpr int kDim = 2;
  constexpr std::uint16_t kPort = 53210;

  InprocDeploymentConfig reference_config;
  reference_config.nodes = kNodes;
  reference_config.dimension = kDim;
  reference_config.protocol.epochs = 1;
  InprocDeployment reference(reference_config);
  ASSERT_TRUE(reference.run().all_live_finished);

  std::vector<int> exit_codes(kNodes, -1);
  std::vector<std::int64_t> epochs_done(kNodes, 0);
  std::vector<std::vector<std::vector<sim::NodeId>>> tables(kNodes);
  {
    std::vector<std::thread> threads;
    threads.reserve(kNodes);
    for (int id = 0; id < kNodes; ++id) {
      threads.emplace_back([id, &exit_codes, &epochs_done, &tables] {
        LiveConfig config;
        config.self = static_cast<sim::NodeId>(id);
        config.nodes = kNodes;
        config.dimension = kDim;
        config.base_port = kPort;
        config.protocol.epochs = 1;
        config.pacer.round_budget_us = 30'000;
        config.linger_us = 300'000;
        MonotonicClock clock;
        LiveNodeRuntime node(config, &clock);
        exit_codes[static_cast<std::size_t>(id)] = node.run();
        epochs_done[static_cast<std::size_t>(id)] =
            node.protocol().metrics().epochs_completed;
        const dos::GroupTable& table = node.protocol().table();
        for (std::uint64_t x = 0; x < table.supernodes(); ++x) {
          tables[static_cast<std::size_t>(id)].push_back(table.group(x));
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }

  const dos::GroupTable& expected = reference.node(0).table();
  for (int id = 0; id < kNodes; ++id) {
    EXPECT_EQ(exit_codes[static_cast<std::size_t>(id)],
              LiveNodeRuntime::kFinished)
        << "node " << id;
    EXPECT_EQ(epochs_done[static_cast<std::size_t>(id)], 1) << "node " << id;
    ASSERT_EQ(tables[static_cast<std::size_t>(id)].size(),
              expected.supernodes())
        << "node " << id;
    for (std::uint64_t x = 0; x < expected.supernodes(); ++x) {
      EXPECT_EQ(tables[static_cast<std::size_t>(id)][x], expected.group(x))
          << "node " << id << " group " << x;
    }
  }
}

TEST(UdpTransport, DatagramHandlerRejectsGarbageAndCountsLateFrames) {
  UdpConfig config;
  config.self = 0;
  config.nodes = 4;
  UdpTransport transport(config);  // never opened: socket-free paths only

  EXPECT_FALSE(transport.on_datagram(std::vector<std::uint8_t>{1, 2, 3}, 0));
  EXPECT_EQ(transport.counters().decode_failures, 1u);

  // A well-formed unreliable datagram from peer 2 carrying a heartbeat.
  Message beat;
  beat.kind = MsgKind::kHeartbeat;
  beat.round = 6;
  std::vector<std::uint8_t> payload;
  encode(beat, payload);
  std::vector<std::uint8_t> datagram =
      link_datagram(LinkOp::kUnreliable, /*from=*/2, /*seq=*/0, payload);

  EXPECT_TRUE(transport.on_datagram(datagram, 0));
  EXPECT_EQ(transport.counters().heartbeats_received, 1u);
  EXPECT_EQ(transport.round_heard(2), 6);

  // A protocol frame whose delivery round has already passed is dropped.
  Message stale;
  stale.kind = MsgKind::kCommitVote;
  stale.round = 1;
  encode(stale, payload);
  datagram = link_datagram(LinkOp::kReliable, 2, /*seq=*/1, payload);
  transport.advance_round(10);
  EXPECT_TRUE(transport.on_datagram(datagram, 0));
  EXPECT_EQ(transport.counters().late_frames, 1u);
  std::vector<sim::Envelope<Message>> inbox;
  transport.poll(inbox);
  EXPECT_TRUE(inbox.empty());
}

TEST(UdpTransport, UnreadableReliablePayloadIsNeitherAckedNorDelivered) {
  UdpConfig config;
  config.self = 0;
  config.nodes = 4;
  UdpTransport transport(config);  // never opened: socket-free paths only
  transport.advance_round(4);

  Message assign;
  assign.kind = MsgKind::kAssign;
  assign.round = 3;
  assign.assigned = 1;
  assign.supernode = 2;
  std::vector<std::uint8_t> payload;
  encode(assign, payload);
  const std::vector<std::uint8_t> intact =
      link_datagram(LinkOp::kReliable, /*from=*/2, /*seq=*/1, payload);
  std::vector<std::uint8_t> unreadable = intact;
  unreadable[kLinkHeaderBytes] ^= 0xFF;  // frame magic

  // The unreadable copy is dropped before the link sees it: no ack, so the
  // sender retransmits, and its sequence number stays fresh.
  EXPECT_FALSE(transport.on_datagram(unreadable, 0));
  EXPECT_EQ(transport.counters().decode_failures, 1u);
  EXPECT_EQ(transport.link(2).counters().delivered, 0u);
  transport.tick(0);
  EXPECT_EQ(transport.counters().acks_sent, 0u);

  // The intact retransmission under the same number is delivered, once.
  EXPECT_TRUE(transport.on_datagram(intact, 0));
  EXPECT_TRUE(transport.on_datagram(intact, 0));
  EXPECT_EQ(transport.link(2).counters().delivered, 1u);
  EXPECT_EQ(transport.link(2).counters().duplicates, 1u);
  transport.tick(0);
  EXPECT_EQ(transport.counters().acks_sent, 2u);

  std::vector<sim::Envelope<Message>> inbox;
  transport.poll(inbox);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].from, 2u);
  EXPECT_EQ(inbox[0].payload.kind, MsgKind::kAssign);
  EXPECT_EQ(inbox[0].payload.assigned, 1u);
  inbox.clear();
  transport.poll(inbox);
  EXPECT_TRUE(inbox.empty());
}

/// Every datagram staged on the link of `transport` toward `peer`, with its
/// tag, read from a copy of the link (for_due consumes transmissions) at a
/// time when every retransmission is due.
std::vector<std::pair<std::vector<std::uint8_t>, std::int64_t>> staged(
    const UdpTransport& transport, sim::NodeId peer) {
  ReliableLink link = transport.link(peer);
  std::vector<std::pair<std::vector<std::uint8_t>, std::int64_t>> out;
  link.for_due(std::int64_t{1} << 40,
               [&](std::span<const std::uint8_t> bytes, std::uint32_t,
                   std::int64_t tag) {
                 out.emplace_back(
                     std::vector<std::uint8_t>(bytes.begin(), bytes.end()),
                     tag);
               });
  return out;
}

TEST(UdpTransport, ListSendStagesTheSameDatagramsAsOneSendPerDestination) {
  // One transport gets each frame as one list send, the other once per
  // destination; the list holds the sender itself and an id past the
  // deployment. Each sender's mangler counts its transmissions.
  constexpr int kNodes = 4;
  PacketMangler list_mangler({}, 1);
  PacketMangler each_mangler({}, 1);
  UdpConfig config;
  config.self = 1;
  config.nodes = kNodes;
  config.mangler = &list_mangler;
  UdpTransport list_udp(config);  // never opened: socket-free paths only
  config.mangler = &each_mangler;
  UdpTransport each_udp(config);

  Message vote;
  vote.kind = MsgKind::kCommitVote;
  vote.round = 2;
  vote.supernode = 3;
  vote.complete = true;
  Message assign = golden(MsgKind::kAssign);
  assign.round = 2;
  Message beat;
  beat.kind = MsgKind::kHeartbeat;
  beat.round = 2;
  const std::vector<sim::NodeId> to = {3, 1, 0, 9, 2};
  for (const Message* msg : {&vote, &beat, &assign}) {
    list_udp.send(to, *msg);
    for (const sim::NodeId id : to) each_udp.send(id, *msg);
  }

  for (sim::NodeId peer = 0; peer < kNodes; ++peer) {
    if (peer == config.self) continue;
    const auto list_staged = staged(list_udp, peer);
    EXPECT_EQ(list_staged.size(), 2u) << "peer " << peer;
    EXPECT_EQ(list_staged, staged(each_udp, peer)) << "peer " << peer;
  }
  EXPECT_EQ(list_udp.link_totals().staged, 6u);
  EXPECT_EQ(each_udp.link_totals().staged, 6u);
  // Two reliable frames and a heartbeat to each of three peers.
  EXPECT_EQ(list_mangler.counters().offered, 9u);
  EXPECT_EQ(each_mangler.counters().offered, 9u);

  // The copies to self are staged for the next round, in send order.
  list_udp.advance_round(3);
  each_udp.advance_round(3);
  std::vector<sim::Envelope<Message>> list_inbox;
  std::vector<sim::Envelope<Message>> each_inbox;
  list_udp.poll(list_inbox);
  each_udp.poll(each_inbox);
  ASSERT_EQ(list_inbox.size(), 3u);
  ASSERT_EQ(each_inbox.size(), 3u);
  const Message* sent[] = {&vote, &beat, &assign};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(list_inbox[i].from, config.self);
    EXPECT_EQ(list_inbox[i].payload, *sent[i]);
    EXPECT_EQ(each_inbox[i].payload, *sent[i]);
  }
}

}  // namespace
}  // namespace reconfnet::transport
