#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "adversary/dos.hpp"
#include "apps/anonym/anonymizer.hpp"
#include "apps/dht/kary_overlay.hpp"
#include "apps/dht/robust_store.hpp"
#include "apps/pubsub/pubsub.hpp"
#include "fault/injector.hpp"
#include "graph/connectivity.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace reconfnet::apps {
namespace {

// --- Anonymizer (Section 7.1) ----------------------------------------------

dos::GroupTable server_table(std::size_t n, int dimension,
                             std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<sim::NodeId> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i] = i;
  return dos::GroupTable::random(dimension, nodes, rng);
}

std::vector<AnonymousRequest> make_requests(std::size_t count) {
  std::vector<AnonymousRequest> requests(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests[i] = {1000 + i, 2000 + i};
  }
  return requests;
}

TEST(Anonymizer, DeliversEverythingWithoutBlocking) {
  const auto servers = server_table(256, 4, 1);
  support::Rng rng(2);
  const auto requests = make_requests(100);
  const auto report = route_anonymous_batch(servers, requests, {}, rng);
  EXPECT_EQ(report.requests, 100u);
  EXPECT_EQ(report.delivered, 100u);
  EXPECT_EQ(report.replied, 100u);
  EXPECT_EQ(report.rounds, kAnonymizerPipelineRounds);
  EXPECT_EQ(report.exit_servers.size(), 100u);
}

TEST(Anonymizer, ExitServersAreUniform) {
  // Corollary 2's anonymity property: exit servers are uniform over V. With
  // uniformly random groups, aggregating exits over many fresh tables must
  // pass a uniformity test.
  std::vector<std::uint64_t> counts(128, 0);
  support::Rng rng(3);
  for (int table_index = 0; table_index < 40; ++table_index) {
    const auto servers = server_table(
        128, 3, 100 + static_cast<std::uint64_t>(table_index));
    const auto requests = make_requests(200);
    const auto report = route_anonymous_batch(servers, requests, {}, rng);
    for (sim::NodeId exit : report.exit_servers) ++counts[exit];
  }
  EXPECT_GT(support::chi_square_uniform(counts).p_value, 1e-4);
}

TEST(Anonymizer, SurvivesHeavyRandomBlocking) {
  const auto servers = server_table(512, 5, 4);
  support::Rng rng(5);
  // Blocked sets for all 5 pipeline rounds at 40% each.
  std::vector<sim::BlockedSet> blocked(kAnonymizerPipelineRounds);
  for (auto& set : blocked) {
    for (sim::NodeId node = 0; node < 512; ++node) {
      if (rng.bernoulli(0.4)) set.insert(node);
    }
  }
  const auto requests = make_requests(200);
  const auto report = route_anonymous_batch(servers, requests, blocked, rng);
  // Groups of ~16 servers: some member survives the 40% blocking of rounds
  // 0-2 w.o.p., so delivery is near-perfect. A reply additionally needs one
  // holder to stay non-blocked through all five independent rounds
  // (0.6^5 ~ 8% per holder, ~70% per group of 16), so the reply rate is
  // lower but still a solid majority.
  EXPECT_GT(report.delivered, 190u);
  EXPECT_GT(report.replied, 110u);
}

TEST(Anonymizer, FullyBlockedEntryRoundDeliversNothing) {
  const auto servers = server_table(64, 3, 6);
  support::Rng rng(7);
  sim::BlockedSet everything;
  for (sim::NodeId node = 0; node < 64; ++node) everything.insert(node);
  std::vector<sim::BlockedSet> blocked{everything};
  const auto requests = make_requests(10);
  const auto report = route_anonymous_batch(servers, requests, blocked, rng);
  EXPECT_EQ(report.delivered, 0u);
}

TEST(Anonymizer, BlockedDestinationGroupDropsRequest) {
  // Block every server except one (the forced entry): its destination group
  // is fully blocked in round 1, so nothing is delivered.
  const auto servers = server_table(64, 3, 8);
  support::Rng rng(9);
  sim::BlockedSet all_but_zero;
  for (sim::NodeId node = 1; node < 64; ++node) all_but_zero.insert(node);
  std::vector<sim::BlockedSet> blocked{all_but_zero, all_but_zero,
                                       all_but_zero};
  const auto requests = make_requests(5);
  const auto report = route_anonymous_batch(servers, requests, blocked, rng);
  EXPECT_EQ(report.delivered, 0u);
}

// --- k-ary grouped overlay (Section 7.2) ------------------------------------

KaryGroupedOverlay::Config kary_config(std::size_t n, int k,
                                       std::uint64_t seed) {
  KaryGroupedOverlay::Config config;
  config.size = n;
  config.arity = k;
  config.group_c = 1.0;
  config.seed = seed;
  return config;
}

TEST(KaryGroupedOverlay, ChoosesDimensionLikeThePaper) {
  // k^d <= n / (c log2 n): n = 1024, k = 4 -> budget 102.4 -> d = 3.
  EXPECT_EQ(dos::choose_dimension(1024, 4, 1.0), 3);
  EXPECT_EQ(dos::choose_dimension(1024, 2, 1.0), 6);
  EXPECT_GE(dos::choose_dimension(64, 8, 1.0), 1);
}

TEST(KaryGroupedOverlay, RejectsNonPowerOfTwoArity) {
  EXPECT_THROW(KaryGroupedOverlay(kary_config(256, 3, 1)),
               std::invalid_argument);
}

TEST(KaryGroupedOverlay, StartsConnectedWithBalancedGroups) {
  KaryGroupedOverlay overlay(kary_config(1024, 4, 2));
  EXPECT_TRUE(graph::is_connected(overlay.groups().all_nodes(),
                                  overlay.overlay_edges()));
  EXPECT_GE(overlay.groups().min_group_size(), 1u);
  std::size_t total = 0;
  for (std::uint64_t x = 0; x < overlay.cube().size(); ++x) {
    total += overlay.groups().group(x).size();
  }
  EXPECT_EQ(total, 1024u);
}

TEST(KaryGroupedOverlay, QuietEpochReorganizes) {
  KaryGroupedOverlay overlay(kary_config(512, 4, 3));
  std::unordered_map<sim::NodeId, std::uint64_t> before;
  for (sim::NodeId node : overlay.groups().all_nodes()) {
    before[node] = overlay.groups().supernode_of(node);
  }
  const auto report = overlay.run_epoch({});
  EXPECT_TRUE(report.success) << report.failure_reason;
  EXPECT_TRUE(report.reorganized);
  std::size_t moved = 0;
  for (const auto& [node, x] : before) {
    if (overlay.groups().supernode_of(node) != x) ++moved;
  }
  EXPECT_GT(moved, 256u);
}

TEST(KaryGroupedOverlay, SurvivesLateIsolationAttack) {
  auto config = kary_config(1024, 4, 4);
  config.group_c = 2.0;
  KaryGroupedOverlay overlay(config);
  support::Rng rng(5);
  adversary::IsolationDos adversary(rng);
  dos::Attack attack;
  attack.adversary = &adversary;
  attack.blocked_fraction = 0.3;
  attack.lateness = 60;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto report = overlay.run_epoch(attack);
    EXPECT_TRUE(report.success) << report.failure_reason;
    EXPECT_EQ(report.disconnected_rounds, 0u);
  }
}

TEST(KaryGroupedOverlay, EpochUnderTotalLossFailsAndKeepsGroups) {
  KaryGroupedOverlay overlay(kary_config(256, 4, 48));
  // d * log2(k) >= 3 binary dimensions take two sampler iterations, so the
  // legs lost in the first one leave the second one dry.
  ASSERT_GE(overlay.groups().dimension(), 3);
  std::unordered_map<sim::NodeId, std::uint64_t> before;
  for (sim::NodeId node : overlay.groups().all_nodes()) {
    before[node] = overlay.groups().supernode_of(node);
  }
  fault::FaultInjector injector(fault::FaultPlan{}.with_loss(1.0),
                                support::Rng(49));
  overlay.set_fault_hook(&injector);
  const auto report = overlay.run_epoch({});
  EXPECT_FALSE(report.success);
  EXPECT_FALSE(report.reorganized);
  EXPECT_EQ(report.failure_reason, "supernode sampling ran dry");
  EXPECT_GT(report.fault_dropped_messages, 0u);
  for (const auto& [node, x] : before) {
    EXPECT_EQ(overlay.groups().supernode_of(node), x);
  }
}

// --- RobustStore -------------------------------------------------------------

TEST(RobustStore, WriteThenReadRoundTrip) {
  KaryGroupedOverlay overlay(kary_config(512, 4, 6));
  RobustStore store(&overlay);
  support::Rng rng(7);
  std::vector<RobustStore::Request> writes;
  for (std::uint64_t key = 0; key < 50; ++key) {
    writes.push_back({true, key, key * 10});
  }
  const auto write_report = store.execute(writes, {}, rng);
  EXPECT_EQ(write_report.write_ok, 50u);
  EXPECT_EQ(store.record_count(), 50u);

  std::vector<RobustStore::Request> reads;
  for (std::uint64_t key = 0; key < 50; ++key) reads.push_back({false, key, 0});
  const auto read_report = store.execute(reads, {}, rng);
  EXPECT_EQ(read_report.read_ok, 50u);
  EXPECT_EQ(read_report.routing_failures, 0u);
  for (std::uint64_t key = 0; key < 50; ++key) {
    EXPECT_EQ(store.peek(key), key * 10);
  }
}

TEST(RobustStore, MissingKeysReportNotFound) {
  KaryGroupedOverlay overlay(kary_config(256, 4, 8));
  RobustStore store(&overlay);
  support::Rng rng(9);
  std::vector<RobustStore::Request> reads{{false, 999, 0}};
  const auto report = store.execute(reads, {}, rng);
  EXPECT_EQ(report.not_found, 1u);
  EXPECT_EQ(report.read_ok, 0u);
}

TEST(RobustStore, RoutingTakesAtMostDimensionPlusOneRounds) {
  KaryGroupedOverlay overlay(kary_config(512, 4, 10));
  RobustStore store(&overlay);
  support::Rng rng(11);
  std::vector<RobustStore::Request> writes;
  for (std::uint64_t key = 0; key < 100; ++key) {
    writes.push_back({true, key, key});
  }
  const auto report = store.execute(writes, {}, rng);
  EXPECT_LE(report.rounds, overlay.cube().dimension() + 1);
}

TEST(RobustStore, SurvivesRandomBlocking) {
  auto config = kary_config(1024, 4, 12);
  config.group_c = 2.0;  // larger groups for blocking tolerance
  KaryGroupedOverlay overlay(config);
  RobustStore store(&overlay);
  support::Rng rng(13);
  // Block 30% of nodes in each pipeline round.
  std::vector<sim::BlockedSet> blocked(
      static_cast<std::size_t>(overlay.cube().dimension()) + 2);
  for (auto& set : blocked) {
    for (sim::NodeId node = 0; node < 1024; ++node) {
      if (rng.bernoulli(0.3)) set.insert(node);
    }
  }
  std::vector<RobustStore::Request> writes;
  for (std::uint64_t key = 0; key < 200; ++key) {
    writes.push_back({true, key, key});
  }
  const auto report = store.execute(writes, blocked, rng);
  EXPECT_GT(report.write_ok, 190u);
}

TEST(RobustStore, TotalBlockingFailsRouting) {
  KaryGroupedOverlay overlay(kary_config(256, 4, 14));
  RobustStore store(&overlay);
  support::Rng rng(15);
  sim::BlockedSet everything;
  for (sim::NodeId node = 0; node < 256; ++node) everything.insert(node);
  std::vector<sim::BlockedSet> blocked(8, everything);
  std::vector<RobustStore::Request> writes{{true, 1, 1}};
  const auto report = store.execute(writes, blocked, rng);
  EXPECT_EQ(report.write_ok, 0u);
  EXPECT_EQ(report.routing_failures, 1u);
}

TEST(RobustStore, DataSurvivesReconfiguration) {
  KaryGroupedOverlay overlay(kary_config(512, 4, 16));
  RobustStore store(&overlay);
  support::Rng rng(17);
  std::vector<RobustStore::Request> writes;
  for (std::uint64_t key = 0; key < 64; ++key) {
    writes.push_back({true, key, key + 7});
  }
  store.execute(writes, {}, rng);
  const auto epoch = store.reconfigure({});
  ASSERT_TRUE(epoch.success) << epoch.failure_reason;
  // Every record still readable through the *new* groups.
  std::vector<RobustStore::Request> reads;
  for (std::uint64_t key = 0; key < 64; ++key) reads.push_back({false, key, 0});
  const auto report = store.execute(reads, {}, rng);
  EXPECT_EQ(report.read_ok, 64u);
}

TEST(RobustStore, CongestionIsBounded) {
  KaryGroupedOverlay overlay(kary_config(1024, 4, 18));
  RobustStore store(&overlay);
  support::Rng rng(19);
  // One request per server (the paper's load model).
  std::vector<RobustStore::Request> writes;
  for (std::uint64_t key = 0; key < 1024; ++key) {
    writes.push_back({true, key, key});
  }
  const auto report = store.execute(writes, {}, rng);
  EXPECT_EQ(report.write_ok, 1024u);
  // With 64 groups and d+1-hop routes, the busiest group should see far less
  // than the full batch.
  EXPECT_LT(report.max_group_congestion, 300u);
}

// --- PubSub ------------------------------------------------------------------

TEST(PubSub, PublishAssignsConsecutiveIndices) {
  KaryGroupedOverlay overlay(kary_config(512, 4, 20));
  RobustStore store(&overlay);
  PubSub pubsub(&store);
  support::Rng rng(21);
  const std::vector<PubSub::Payload> first{11, 22, 33};
  const auto report = pubsub.publish(5, first, {}, rng);
  EXPECT_EQ(report.published, 3u);
  const std::vector<PubSub::Payload> second{44};
  pubsub.publish(5, second, {}, rng);

  const auto fetched = pubsub.fetch_since(5, 0, {}, rng);
  EXPECT_TRUE(fetched.complete);
  EXPECT_EQ(fetched.latest, 4u);
  EXPECT_EQ(fetched.payloads, (std::vector<PubSub::Payload>{11, 22, 33, 44}));
}

TEST(PubSub, FetchSinceSkipsOldEntries) {
  KaryGroupedOverlay overlay(kary_config(512, 4, 22));
  RobustStore store(&overlay);
  PubSub pubsub(&store);
  support::Rng rng(23);
  const std::vector<PubSub::Payload> payloads{1, 2, 3, 4, 5};
  pubsub.publish(9, payloads, {}, rng);
  const auto fetched = pubsub.fetch_since(9, 3, {}, rng);
  EXPECT_TRUE(fetched.complete);
  EXPECT_EQ(fetched.payloads, (std::vector<PubSub::Payload>{4, 5}));
}

TEST(PubSub, EmptyTopicIsComplete) {
  KaryGroupedOverlay overlay(kary_config(256, 4, 24));
  RobustStore store(&overlay);
  PubSub pubsub(&store);
  support::Rng rng(25);
  const auto fetched = pubsub.fetch_since(77, 0, {}, rng);
  EXPECT_TRUE(fetched.complete);
  EXPECT_TRUE(fetched.payloads.empty());
  EXPECT_EQ(fetched.latest, 0u);
}

TEST(PubSub, TopicsAreIndependent) {
  KaryGroupedOverlay overlay(kary_config(512, 4, 26));
  RobustStore store(&overlay);
  PubSub pubsub(&store);
  support::Rng rng(27);
  pubsub.publish(1, std::vector<PubSub::Payload>{10}, {}, rng);
  pubsub.publish(2, std::vector<PubSub::Payload>{20, 21}, {}, rng);
  EXPECT_EQ(pubsub.fetch_since(1, 0, {}, rng).payloads.size(), 1u);
  EXPECT_EQ(pubsub.fetch_since(2, 0, {}, rng).payloads.size(), 2u);
}

TEST(PubSub, CounterNeverAdvancesOverHoles) {
  KaryGroupedOverlay overlay(kary_config(256, 4, 28));
  RobustStore store(&overlay);
  PubSub pubsub(&store);
  support::Rng rng(29);
  // Publish under total blocking: nothing stored, counter untouched.
  sim::BlockedSet everything;
  for (sim::NodeId node = 0; node < 256; ++node) everything.insert(node);
  std::vector<sim::BlockedSet> blocked(8, everything);
  const auto report =
      pubsub.publish(3, std::vector<PubSub::Payload>{7}, blocked, rng);
  EXPECT_EQ(report.published, 0u);
  const auto fetched = pubsub.fetch_since(3, 0, {}, rng);
  EXPECT_EQ(fetched.latest, 0u);
}

TEST(PubSub, SurvivesReconfigurationBetweenPublishAndFetch) {
  KaryGroupedOverlay overlay(kary_config(512, 4, 30));
  RobustStore store(&overlay);
  PubSub pubsub(&store);
  support::Rng rng(31);
  pubsub.publish(4, std::vector<PubSub::Payload>{100, 200}, {}, rng);
  ASSERT_TRUE(store.reconfigure({}).success);
  const auto fetched = pubsub.fetch_since(4, 0, {}, rng);
  EXPECT_TRUE(fetched.complete);
  EXPECT_EQ(fetched.payloads, (std::vector<PubSub::Payload>{100, 200}));
}

// --- Aggregated publish (Section 7.3's Ranade-style combining) --------------

TEST(PubSubAggregate, CombinesAndIndexesABatch) {
  KaryGroupedOverlay overlay(kary_config(512, 4, 40));
  RobustStore store(&overlay);
  PubSub pubsub(&store);
  support::Rng rng(41);
  // 64 servers publish to the same hot topic simultaneously.
  std::vector<PubSub::BatchPublication> batch;
  for (std::uint64_t i = 0; i < 64; ++i) {
    batch.push_back({i % overlay.cube().size(), /*topic=*/7,
                     /*payload=*/1000 + i});
  }
  const auto report = pubsub.aggregate_publish(batch, {}, rng);
  EXPECT_EQ(report.published, 64u);
  EXPECT_LE(report.rounds, overlay.cube().dimension() + 2);
  // Combining caps the busiest group at one message per topic per hop...
  EXPECT_LT(report.combined_congestion, report.naive_congestion);
  // ...and every publication is readable with consecutive indices.
  const auto fetched = pubsub.fetch_since(7, 0, {}, rng);
  EXPECT_TRUE(fetched.complete);
  EXPECT_EQ(fetched.payloads.size(), 64u);
}

TEST(PubSubAggregate, MultipleTopicsStayIndependent) {
  KaryGroupedOverlay overlay(kary_config(512, 4, 42));
  RobustStore store(&overlay);
  PubSub pubsub(&store);
  support::Rng rng(43);
  std::vector<PubSub::BatchPublication> batch;
  for (std::uint64_t i = 0; i < 30; ++i) {
    batch.push_back({i % overlay.cube().size(), i % 3, i});
  }
  const auto report = pubsub.aggregate_publish(batch, {}, rng);
  EXPECT_EQ(report.published, 30u);
  for (std::uint64_t topic = 0; topic < 3; ++topic) {
    const auto fetched = pubsub.fetch_since(topic, 0, {}, rng);
    EXPECT_EQ(fetched.payloads.size(), 10u) << "topic " << topic;
  }
}

TEST(PubSubAggregate, HotTopicCongestionIsBoundedByTreeDepth) {
  // The headline of the aggregation: with EVERY group publishing to one
  // topic, the naive congestion at the home grows with the batch size while
  // the combined congestion grows only with the in-degree of the routing
  // tree (~ #groups at distance 1).
  KaryGroupedOverlay overlay(kary_config(1024, 4, 44));
  RobustStore store(&overlay);
  PubSub pubsub(&store);
  support::Rng rng(45);
  std::vector<PubSub::BatchPublication> batch;
  for (std::uint64_t g = 0; g < overlay.cube().size(); ++g) {
    for (int per_server = 0; per_server < 4; ++per_server) {
      batch.push_back({g, 9, g * 10 + static_cast<std::uint64_t>(per_server)});
    }
  }
  const auto report = pubsub.aggregate_publish(batch, {}, rng);
  EXPECT_EQ(report.published, batch.size());
  EXPECT_GE(report.naive_congestion, batch.size());
  EXPECT_LT(report.combined_congestion, batch.size() / 4);
}

TEST(PubSubAggregate, InteroperatesWithSequentialPublish) {
  KaryGroupedOverlay overlay(kary_config(512, 4, 46));
  RobustStore store(&overlay);
  PubSub pubsub(&store);
  support::Rng rng(47);
  pubsub.publish(5, std::vector<PubSub::Payload>{1, 2}, {}, rng);
  std::vector<PubSub::BatchPublication> batch{{0, 5, 3}, {1, 5, 4}};
  const auto report = pubsub.aggregate_publish(batch, {}, rng);
  EXPECT_EQ(report.published, 2u);
  const auto fetched = pubsub.fetch_since(5, 0, {}, rng);
  EXPECT_TRUE(fetched.complete);
  EXPECT_EQ(fetched.latest, 4u);
  EXPECT_EQ(fetched.payloads.size(), 4u);
}

}  // namespace
}  // namespace reconfnet::apps
