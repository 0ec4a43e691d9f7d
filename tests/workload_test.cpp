// Tests for the deterministic workload engine (src/workload/, DESIGN.md §12):
// key distributions, arrival processes, the shared percentile accumulator,
// request tracking and conservation, hot-key mitigation, the driver against
// all three Section 7 app adapters, and the determinism contract (same seed
// => identical report; --jobs invariance via TrialRunner).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "runtime/trial_runner.hpp"
#include "support/percentiles.hpp"
#include "support/rng.hpp"
#include "workload/adapters.hpp"
#include "workload/arrival.hpp"
#include "workload/driver.hpp"
#include "workload/hot_key.hpp"
#include "workload/key_dist.hpp"
#include "workload/tracker.hpp"

namespace reconfnet::workload {
namespace {

// --- KeyDist ----------------------------------------------------------------

TEST(KeyDist, UniformDrawsStayInKeyspace) {
  KeyDistConfig config;
  config.keyspace = 100;
  config.theta = 0.0;
  KeyDist dist(config);
  support::Rng rng(1);
  std::vector<std::uint64_t> counts(100, 0);
  for (int i = 0; i < 50000; ++i) {
    const auto key = dist.next(rng);
    ASSERT_LT(key, 100u);
    ++counts[key];
  }
  // Every key hit, none wildly over-represented (mean 500).
  for (const auto count : counts) {
    EXPECT_GT(count, 300u);
    EXPECT_LT(count, 700u);
  }
}

TEST(KeyDist, ZipfianMatchesExpectedFractions) {
  KeyDistConfig config;
  config.keyspace = 1000;
  config.theta = 0.99;
  config.scramble = false;  // rank r -> key r, to read the shape directly
  KeyDist dist(config);
  support::Rng rng(2);
  const int draws = 200000;
  std::vector<std::uint64_t> counts(1000, 0);
  for (int i = 0; i < draws; ++i) ++counts[dist.next(rng)];
  for (const std::uint64_t rank : {0u, 1u, 10u}) {
    const double expected = dist.expected_fraction(rank);
    const double observed =
        static_cast<double>(counts[rank]) / static_cast<double>(draws);
    EXPECT_NEAR(observed, expected, 0.2 * expected + 0.001)
        << "rank " << rank;
  }
  // Popularity is monotone in rank.
  EXPECT_GT(dist.expected_fraction(0), dist.expected_fraction(1));
  EXPECT_GT(dist.expected_fraction(1), dist.expected_fraction(100));
}

TEST(KeyDist, ThetaAtLeastOneIsExact) {
  KeyDistConfig config;
  config.keyspace = 500;
  config.theta = 1.2;  // the Gray-formula approximation breaks down here
  config.scramble = false;
  KeyDist dist(config);
  support::Rng rng(3);
  std::vector<std::uint64_t> counts(500, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto key = dist.next(rng);
    ASSERT_LT(key, 500u);
    ++counts[key];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[200]);
}

TEST(KeyDist, ScrambleIsAPermutation) {
  KeyDistConfig config;
  config.keyspace = 4096;
  config.theta = 0.99;
  KeyDist dist(config);
  std::set<std::uint64_t> keys;
  for (std::uint64_t rank = 0; rank < config.keyspace; ++rank) {
    const auto key = dist.key_of_rank(rank);
    ASSERT_LT(key, config.keyspace);
    keys.insert(key);
  }
  EXPECT_EQ(keys.size(), config.keyspace);
}

TEST(KeyDist, RejectsDegenerateConfigs) {
  EXPECT_THROW(KeyDist(KeyDistConfig{0, 0.0, true}), std::invalid_argument);
  EXPECT_THROW(KeyDist(KeyDistConfig{10, -0.5, true}), std::invalid_argument);
}

// --- ArrivalProcess ---------------------------------------------------------

TEST(Arrival, FixedRateIsExactAndConsumesNoRandomness) {
  ArrivalProcess arrivals(ArrivalConfig{2.5, false});
  support::Rng rng(4);
  support::Rng untouched(4);
  std::uint64_t total = 0;
  for (int round = 0; round < 1000; ++round) total += arrivals.next(rng);
  EXPECT_EQ(total, 2500u);
  // The fixed-rate accumulator must not have advanced the stream.
  EXPECT_EQ(rng.next(), untouched.next());
}

TEST(Arrival, PoissonMeanMatchesRate) {
  ArrivalProcess arrivals(ArrivalConfig{7.3, true});
  support::Rng rng(5);
  std::uint64_t total = 0;
  const int rounds = 20000;
  for (int round = 0; round < rounds; ++round) total += arrivals.next(rng);
  const double mean = static_cast<double>(total) / rounds;
  EXPECT_NEAR(mean, 7.3, 0.2);
}

TEST(Arrival, PoissonLargeRateDoesNotUnderflow) {
  // exp(-1000) underflows a double; the chunked draw must still work.
  ArrivalProcess arrivals(ArrivalConfig{1000.0, true});
  support::Rng rng(6);
  std::uint64_t total = 0;
  const int rounds = 200;
  for (int round = 0; round < rounds; ++round) total += arrivals.next(rng);
  const double mean = static_cast<double>(total) / rounds;
  EXPECT_NEAR(mean, 1000.0, 30.0);
}

// --- Percentiles ------------------------------------------------------------

/// Brute-force reference: smallest value whose cumulative count reaches
/// ceil(q * n) over the multiset.
std::uint64_t reference_percentile(std::vector<std::uint64_t> values,
                                   double q) {
  std::sort(values.begin(), values.end());
  const auto need = static_cast<std::size_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(values.size()))));
  return values[need - 1];
}

TEST(Percentiles, ExactAgainstSortedReference) {
  support::Rng rng(7);
  std::vector<std::uint64_t> values;
  support::Percentiles acc(1023);
  for (int i = 0; i < 10000; ++i) {
    const auto value = rng.below(1000);
    values.push_back(value);
    acc.add(value);
  }
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(acc.percentile(q), reference_percentile(values, q)) << q;
  }
  EXPECT_EQ(acc.count(), 10000u);
  EXPECT_EQ(acc.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(acc.max(), *std::max_element(values.begin(), values.end()));
}

TEST(Percentiles, MergeEqualsUnion) {
  support::Rng rng(8);
  support::Percentiles a(255);
  support::Percentiles b(255);
  support::Percentiles whole(255);
  for (int i = 0; i < 5000; ++i) {
    const auto value = rng.below(300);  // includes overflow traffic
    (i % 2 == 0 ? a : b).add(value);
    whole.add(value);
  }
  a.merge(b);
  for (const double q : {0.1, 0.5, 0.99, 0.999}) {
    EXPECT_EQ(a.percentile(q), whole.percentile(q)) << q;
  }
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.overflow(), whole.overflow());
}

TEST(Percentiles, OverflowClampsToMaxValue) {
  support::Percentiles acc(10);
  acc.add(3);
  acc.add(500);
  EXPECT_EQ(acc.overflow(), 1u);
  EXPECT_EQ(acc.percentile(1.0), 10u);  // clamped report
  EXPECT_EQ(acc.max(), 500u);           // true max still visible
}

TEST(Percentiles, MergeRejectsMismatchedShapes) {
  support::Percentiles a(10);
  support::Percentiles b(20);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Percentiles, SortedHelperInterpolates) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(support::percentile_sorted(sorted, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(support::percentile_sorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(support::percentile_sorted(sorted, 1.0), 4.0);
}

// --- RequestTracker ---------------------------------------------------------

TEST(RequestTracker, TracksLatencyAndConservation) {
  RequestTracker tracker(63, 8);
  const auto a = tracker.issue(10);
  const auto b = tracker.issue(10);
  const auto c = tracker.issue(11);
  EXPECT_EQ(tracker.in_flight(), 3u);
  tracker.complete(a, 15);  // latency 5
  tracker.complete(b, 12);  // latency 2
  tracker.fail(c, 20);
  EXPECT_EQ(tracker.issued(), 3u);
  EXPECT_EQ(tracker.completed(), 2u);
  EXPECT_EQ(tracker.failed(), 1u);
  EXPECT_EQ(tracker.in_flight(), 0u);
  EXPECT_TRUE(tracker.conserved());
  EXPECT_EQ(tracker.latency().count(), 2u);
  EXPECT_EQ(tracker.latency().max(), 5u);
}

TEST(RequestTracker, RecyclesSlots) {
  RequestTracker tracker(63, 4);
  const auto a = tracker.issue(1);
  tracker.complete(a, 2);
  const auto b = tracker.issue(3);
  EXPECT_EQ(a, b);  // free list reuses the slot
  EXPECT_EQ(tracker.issue_round(b), 3);
}

// --- Audit check ------------------------------------------------------------

TEST(WorkloadAudit, ConservationCheckFiresOnLeak) {
  EXPECT_TRUE(audit::check_request_conservation(10, 6, 2, 2).empty());
  const auto violations = audit::check_request_conservation(10, 6, 2, 1);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].check, "workload.conservation");
}

// --- HotKeyMitigator --------------------------------------------------------

MitigationConfig basic_mitigation() {
  MitigationConfig config;
  config.enabled = true;
  config.top_k = 4;
  config.replicate_threshold = 3;
  config.cache_slots = 0;  // isolate the replica path
  return config;
}

TEST(HotKey, ObserveTriggersOnceAtThreshold) {
  HotKeyMitigator mitigator(basic_mitigation(), 8);
  EXPECT_FALSE(mitigator.observe(42));
  EXPECT_FALSE(mitigator.observe(42));
  EXPECT_TRUE(mitigator.observe(42));   // third observation crosses
  EXPECT_FALSE(mitigator.observe(42));  // but only fires once
}

TEST(HotKey, FloodReachesEveryGroupWithoutFaults) {
  HotKeyMitigator mitigator(basic_mitigation(), 8);
  mitigator.replicate(42, 777, /*home_group=*/3, /*round=*/10);
  EXPECT_EQ(mitigator.flood_rounds(), 3);
  EXPECT_EQ(mitigator.stats().replications, 1u);
  EXPECT_EQ(mitigator.stats().replica_messages, 7u);  // 2^3 - 1
  EXPECT_EQ(mitigator.stats().replica_drops, 0u);
  std::uint64_t value = 0;
  // Not yet active before round + flood_rounds.
  EXPECT_FALSE(mitigator.serve_cached(42, 0, 10, value));
  for (std::uint64_t group = 0; group < 8; ++group) {
    value = 0;
    EXPECT_TRUE(mitigator.serve_cached(42, group, 13, value)) << group;
    EXPECT_EQ(value, 777u);
  }
  EXPECT_FALSE(mitigator.serve_cached(43, 0, 13, value));  // other keys miss
}

TEST(HotKey, StarFallbackForNonPowerOfTwoGroups) {
  HotKeyMitigator mitigator(basic_mitigation(), 6);
  mitigator.replicate(1, 5, 2, 0);
  EXPECT_EQ(mitigator.flood_rounds(), 1);
  EXPECT_EQ(mitigator.stats().replica_messages, 5u);
  std::uint64_t value = 0;
  for (std::uint64_t group = 0; group < 6; ++group) {
    EXPECT_TRUE(mitigator.serve_cached(1, group, 2, value)) << group;
  }
}

TEST(HotKey, WriteThroughRefreshUpdatesValue) {
  HotKeyMitigator mitigator(basic_mitigation(), 8);
  mitigator.replicate(42, 1, 0, 0);
  mitigator.on_write(42, 2, 5);
  std::uint64_t value = 0;
  ASSERT_TRUE(mitigator.serve_cached(42, 5, 10, value));
  EXPECT_EQ(value, 2u);
  EXPECT_EQ(mitigator.stats().replications, 2u);
}

TEST(HotKey, CacheRespectsTtl) {
  MitigationConfig config = basic_mitigation();
  config.cache_slots = 2;
  config.cache_ttl = 5;
  HotKeyMitigator mitigator(config, 4);
  mitigator.fill_cache(9, 99, /*entry_group=*/1, /*round=*/10);
  std::uint64_t value = 0;
  EXPECT_TRUE(mitigator.serve_cached(9, 1, 14, value));  // expires at 15
  EXPECT_EQ(value, 99u);
  EXPECT_FALSE(mitigator.serve_cached(9, 1, 15, value));  // TTL elapsed
  EXPECT_FALSE(mitigator.serve_cached(9, 2, 12, value));  // other group's cache
}

TEST(HotKey, LossyFloodLeavesHoles) {
  fault::FaultInjector injector(fault::FaultPlan{}.with_loss(0.9),
                                support::Rng(11));
  HotKeyMitigator mitigator(basic_mitigation(), 16);
  mitigator.set_fault_hook(&injector);
  mitigator.replicate(7, 70, 0, 0);
  EXPECT_GT(mitigator.stats().replica_drops, 0u);
  std::uint64_t value = 0;
  std::size_t holes = 0;
  for (std::uint64_t group = 0; group < 16; ++group) {
    if (!mitigator.serve_cached(7, group, 100, value)) ++holes;
  }
  EXPECT_GT(holes, 0u);
  EXPECT_LT(holes, 16u);  // the home group always has it
}

// --- WorkloadDriver with the app adapters -----------------------------------

DhtAdapterConfig small_dht() {
  DhtAdapterConfig config;
  config.size = 256;
  config.prefill_keys = 1000;
  config.seed = 21;
  return config;
}

TEST(WorkloadDriver, DhtServesPrefilledReads) {
  DhtAdapter adapter(small_dht());
  // Direct adapter check: a routed read returns the deposited value.
  support::Rng rng(1);
  const auto outcome =
      adapter.serve(Op{false, 17, 0}, adapter.home_group(Op{false, 17, 0}),
                    {}, rng);
  ASSERT_TRUE(outcome.ok);
  ASSERT_TRUE(outcome.found);
  EXPECT_EQ(outcome.value, DhtAdapter::prefill_value(17));

  DriverConfig config;
  config.rounds = 64;
  config.write_fraction = 0.1;
  config.keys.keyspace = 1000;
  config.arrivals.rate = 4.0;
  support::Rng master(100);
  const auto report = run_workload(config, adapter, master);
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.failed, 0u);  // nothing blocked, nothing lost
  EXPECT_EQ(report.issued, report.completed + report.failed + report.in_flight);
  EXPECT_GT(report.throughput, 0.0);
  EXPECT_GE(report.p99, report.p50);
}

TEST(WorkloadDriver, DriverPassesConservationAuditEveryRound) {
  DhtAdapter adapter(small_dht());
  DriverConfig config;
  config.rounds = 32;
  config.keys.keyspace = 1000;
  config.arrivals.rate = 8.0;
  config.epoch_every = 10;
  config.blocked_fraction = 0.1;
  config.audit = true;
  const audit::ScopedEnable audit_on;
  support::Rng master(101);
  const auto report = run_workload(config, adapter, master);  // must not throw
  EXPECT_GT(report.issued, 0u);
}

TEST(WorkloadDriver, OverloadRaisesTailLatency) {
  DriverConfig config;
  config.rounds = 96;
  config.write_fraction = 0.0;
  config.keys.keyspace = 1000;
  config.per_group_capacity = 2;

  config.arrivals.rate = 2.0;  // far below capacity
  DhtAdapter calm_adapter(small_dht());
  support::Rng calm_master(102);
  const auto calm = run_workload(config, calm_adapter, calm_master);

  config.arrivals.rate = 64.0;  // beyond aggregate capacity
  DhtAdapter hot_adapter(small_dht());
  support::Rng hot_master(102);
  const auto overloaded = run_workload(config, hot_adapter, hot_master);

  EXPECT_GT(overloaded.p99, calm.p99);
  EXPECT_GT(overloaded.in_flight, calm.in_flight);
  EXPECT_GT(overloaded.max_queue, calm.max_queue);
}

TEST(WorkloadDriver, EpochsStallServiceAndSpikeTail) {
  DriverConfig config;
  config.rounds = 60;
  config.keys.keyspace = 1000;
  config.arrivals.rate = 4.0;
  config.epoch_every = 20;
  DhtAdapter adapter(small_dht());
  support::Rng master(103);
  const auto report = run_workload(config, adapter, master);
  EXPECT_GE(report.epochs_run, 2u);
  EXPECT_GT(report.epoch_rounds, 0u);
  EXPECT_GT(report.rounds, 60u);  // virtual clock includes epoch rounds
  // Requests issued during an epoch wait at least until it ends.
  EXPECT_GT(report.max_latency, report.p50);
}

TEST(WorkloadDriver, MitigationCutsTailUnderSkew) {
  DriverConfig config;
  config.rounds = 128;
  config.write_fraction = 0.0;
  config.keys.keyspace = 1000;
  config.keys.theta = 1.1;
  config.arrivals.rate = 24.0;
  config.per_group_capacity = 2;

  DhtAdapter plain_adapter(small_dht());
  support::Rng plain_master(104);
  const auto plain = run_workload(config, plain_adapter, plain_master);

  config.mitigation.enabled = true;
  config.mitigation.top_k = 8;
  config.mitigation.replicate_threshold = 16;
  config.mitigation.cache_slots = 4;
  config.mitigation.cache_ttl = 16;
  DhtAdapter mitigated_adapter(small_dht());
  support::Rng mitigated_master(104);
  const auto mitigated = run_workload(config, mitigated_adapter,
                                      mitigated_master);

  EXPECT_GT(mitigated.mitigation.replications, 0u);
  EXPECT_GT(mitigated.mitigation.replica_hits + mitigated.mitigation.cache_hits,
            0u);
  EXPECT_LT(mitigated.p999, plain.p999);
  EXPECT_GT(mitigated.completed, plain.completed);
}

TEST(WorkloadDriver, FaultsCauseRetriesButConservationHolds) {
  DriverConfig config;
  config.rounds = 64;
  config.keys.keyspace = 1000;
  config.arrivals.rate = 4.0;
  config.max_attempts = 2;
  config.faults = fault::FaultPlan{}.with_loss(0.5);
  DhtAdapter adapter(small_dht());
  support::Rng master(105);
  const auto report = run_workload(config, adapter, master);
  EXPECT_GT(report.fault_lost_legs, 0u);
  EXPECT_GT(report.retries, 0u);
  EXPECT_GT(report.failed, 0u);
  EXPECT_EQ(report.issued, report.completed + report.failed + report.in_flight);
}

TEST(WorkloadDriver, PubSubPublishThenFetchRoundTrips) {
  PubSubAdapterConfig adapter_config;
  adapter_config.size = 256;
  adapter_config.topics = 16;
  adapter_config.seed = 22;
  PubSubAdapter adapter(adapter_config);
  support::Rng rng(2);
  const auto published = adapter.serve(Op{true, 3, 777}, 0, {}, rng);
  ASSERT_TRUE(published.ok);
  const auto fetched = adapter.serve(Op{false, 3, 0}, 0, {}, rng);
  ASSERT_TRUE(fetched.ok);
  EXPECT_TRUE(fetched.found);
  EXPECT_EQ(fetched.value, 777u);

  DriverConfig config;
  config.rounds = 32;
  config.write_fraction = 0.5;
  config.keys.keyspace = 64;
  config.arrivals.rate = 2.0;
  support::Rng master(106);
  const auto report = run_workload(config, adapter, master);
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.issued, report.completed + report.failed + report.in_flight);
}

TEST(WorkloadDriver, AdaptersAttackEpochsOnlyWhenConfigured) {
  // Each adapter builds its epoch attack from its config. An adversary
  // blocking 90% of the nodes silences some group, so the attacked epoch
  // fails and keeps the old groups; with the default epoch_blocked_fraction
  // of 0 the same epoch succeeds.
  support::Rng rng(1);
  DhtAdapterConfig dht;
  dht.size = 256;
  dht.seed = 24;
  PubSubAdapterConfig pubsub;
  pubsub.size = 256;
  pubsub.seed = 25;
  AnonymAdapterConfig anonym;
  anonym.size = 256;
  anonym.seed = 26;
  EXPECT_TRUE(DhtAdapter(dht).run_epoch(rng).ok);
  EXPECT_TRUE(PubSubAdapter(pubsub).run_epoch(rng).ok);
  EXPECT_TRUE(AnonymAdapter(anonym).run_epoch(rng).ok);

  dht.epoch_blocked_fraction = 0.9;
  pubsub.epoch_blocked_fraction = 0.9;
  anonym.epoch_blocked_fraction = 0.9;
  EXPECT_FALSE(DhtAdapter(dht).run_epoch(rng).ok);
  EXPECT_FALSE(PubSubAdapter(pubsub).run_epoch(rng).ok);
  EXPECT_FALSE(AnonymAdapter(anonym).run_epoch(rng).ok);
}

TEST(WorkloadDriver, AnonymizerDeliversUserTraffic) {
  AnonymAdapterConfig adapter_config;
  adapter_config.size = 256;
  adapter_config.seed = 23;
  AnonymAdapter adapter(adapter_config);
  DriverConfig config;
  config.rounds = 32;
  config.keys.keyspace = 4096;
  config.arrivals.rate = 4.0;
  support::Rng master(107);
  const auto report = run_workload(config, adapter, master);
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.issued, report.completed + report.failed + report.in_flight);
}

// --- Determinism ------------------------------------------------------------

DriverConfig nasty_driver_config() {
  DriverConfig config;
  config.rounds = 48;
  config.write_fraction = 0.2;
  config.keys.keyspace = 500;
  config.keys.theta = 0.99;
  config.arrivals.rate = 6.0;
  config.arrivals.poisson = true;
  config.epoch_every = 16;
  config.blocked_fraction = 0.05;
  config.faults = fault::FaultPlan{}.with_loss(0.1).with_delay(0.1, 2);
  config.mitigation.enabled = true;
  config.mitigation.replicate_threshold = 8;
  return config;
}

std::vector<double> report_fingerprint(const WorkloadReport& report) {
  return {static_cast<double>(report.issued),
          static_cast<double>(report.completed),
          static_cast<double>(report.failed),
          static_cast<double>(report.in_flight),
          static_cast<double>(report.retries),
          static_cast<double>(report.fault_lost_legs),
          static_cast<double>(report.rounds),
          static_cast<double>(report.epoch_rounds),
          static_cast<double>(report.max_queue),
          static_cast<double>(report.p50),
          static_cast<double>(report.p99),
          static_cast<double>(report.p999),
          report.mean_latency,
          static_cast<double>(report.mitigation.cache_hits),
          static_cast<double>(report.mitigation.replica_hits),
          static_cast<double>(report.mitigation.replications),
          static_cast<double>(report.mitigation.replica_bits)};
}

TEST(WorkloadDeterminism, SameSeedSameReport) {
  const auto config = nasty_driver_config();
  DhtAdapterConfig dht = small_dht();
  DhtAdapter adapter_a(dht);
  DhtAdapter adapter_b(dht);
  support::Rng master_a(0xABCD);
  support::Rng master_b(0xABCD);
  const auto a = run_workload(config, adapter_a, master_a);
  const auto b = run_workload(config, adapter_b, master_b);
  EXPECT_EQ(report_fingerprint(a), report_fingerprint(b));
}

TEST(WorkloadDeterminism, JobsDoNotChangeResults) {
  // The same 4-trial grid through 1 worker and 4 workers must agree on every
  // metric, percentiles included (the --jobs contract of the W benches).
  const auto run_grid = [](std::size_t jobs) {
    runtime::TrialRunner runner(0xFEED, jobs);
    return runner.run(4, [](runtime::TrialContext& trial) {
      DhtAdapterConfig dht;
      dht.size = 128;
      dht.prefill_keys = 200;
      dht.seed = 31 + trial.index;
      DhtAdapter adapter(dht);
      DriverConfig config;
      config.rounds = 24;
      config.keys.keyspace = 200;
      config.keys.theta = 0.99;
      config.arrivals.rate = 4.0;
      config.mitigation.enabled = true;
      config.mitigation.replicate_threshold = 8;
      WorkloadDriver driver(config, &adapter);
      return report_fingerprint(driver.run(trial.rng));
    });
  };
  EXPECT_EQ(run_grid(1), run_grid(4));
}

}  // namespace
}  // namespace reconfnet::workload
