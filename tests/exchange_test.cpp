// Tests for the request/serve/accept exchange (src/sampling/exchange.hpp):
// both samplers match a reference that drives the same cores over sim::Bus,
// field for field, with and without a fault hook, a copy the hook delays
// into another phase is discarded instead of used (DESIGN.md §4, §10), and
// every output is the same on any number of node ranges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu_mask.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "graph/hgraph.hpp"
#include "graph/hypercube.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/trial_runner.hpp"
#include "sampling/exchange.hpp"
#include "sampling/hgraph_sampler.hpp"
#include "sampling/hypercube_sampler.hpp"
#include "sampling/schedule.hpp"
#include "sim/bus.hpp"
#include "sim/metrics.hpp"
#include "support/rng.hpp"

namespace reconfnet::sampling {
namespace {

// --- references over sim::Bus -----------------------------------------------

/// Algorithm 1 over sim::Bus, the way run_hgraph_sampling drove it before
/// the exchange, plus the iteration rule: a copy delivered outside its phase
/// (a message of the other kind, or of another iteration) is discarded and
/// counted.
HGraphSamplingResult bus_hgraph_sampling(const graph::HGraph& graph,
                                         const Schedule& schedule,
                                         support::Rng& rng,
                                         sim::DeliveryHook* hook) {
  struct WireMsg {
    bool is_request = false;
    int iteration = 0;
    HGraphSamplerCore::Request request{};
    HGraphSamplerCore::Response response{};
  };
  const std::size_t n = graph.size();
  const std::uint64_t bits = 1 + sim::id_bits(n - 1);
  std::vector<HGraphSamplerCore> cores;
  cores.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<std::uint32_t> ports;
    for (const auto w : graph.neighbors(v)) {
      ports.push_back(static_cast<std::uint32_t>(w));
    }
    cores.emplace_back(v, schedule, rng.split(v));
    cores.back().init(ports);
  }
  sim::WorkMeter meter;
  sim::Bus<WireMsg> bus(&meter);
  bus.set_fault_hook(hook);
  HGraphSamplingResult result;
  for (int i = 1; i <= schedule.iterations; ++i) {
    for (auto& core : cores) {
      core.make_requests(i);
      core.for_each_request(
          [&](std::size_t to, const HGraphSamplerCore::Request& request) {
            bus.send(core.self(), to, WireMsg{true, i, request, {}}, bits);
          });
    }
    bus.step();
    for (auto& core : cores) {
      for (const auto& envelope : bus.inbox(core.self())) {
        if (!envelope.payload.is_request || envelope.payload.iteration != i) {
          ++result.late_copies;
          continue;
        }
        const auto& request = envelope.payload.request;
        bus.send(core.self(), request.requester,
                 WireMsg{false, i, {}, core.serve(request)}, bits);
      }
      core.discard_leftovers();
    }
    bus.step();
    for (auto& core : cores) {
      for (const auto& envelope : bus.inbox(core.self())) {
        if (envelope.payload.is_request || envelope.payload.iteration != i) {
          ++result.late_copies;
          continue;
        }
        core.accept(envelope.payload.response);
      }
      core.shuffle_multiset();
    }
  }
  result.rounds = bus.round();
  result.max_node_bits_per_round = meter.max_node_bits_any_round();
  result.samples.resize(n);
  result.walk_lengths.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    result.dry_events += cores[v].dry_events();
    for (const auto& entry : cores[v].multiset()) {
      result.samples[v].push_back(entry.vertex);
      result.walk_lengths[v].push_back(entry.length);
    }
  }
  result.success = result.dry_events == 0;
  return result;
}

/// Algorithm 2 over sim::Bus, the way run_hypercube_sampling drove it
/// before the exchange.
HypercubeSamplingResult bus_hypercube_sampling(const graph::Hypercube& cube,
                                               const Schedule& schedule,
                                               support::Rng& rng) {
  struct WireMsg {
    bool is_request = false;
    HypercubeSamplerCore::Request request{};
    HypercubeSamplerCore::Response response{};
  };
  const auto n = cube.size();
  const std::uint64_t bits =
      1 + sim::id_bits(n - 1) +
      static_cast<std::uint64_t>(
          ceil_log2(static_cast<std::size_t>(cube.dimension())) + 1);
  std::vector<HypercubeSamplerCore> cores;
  std::vector<support::Rng> rngs;
  for (std::uint64_t v = 0; v < n; ++v) {
    cores.emplace_back(cube.dimension(), v, schedule);
    rngs.push_back(rng.split(v));
    cores.back().init(rngs.back());
  }
  sim::WorkMeter meter;
  sim::Bus<WireMsg> bus(&meter);
  for (int i = 1; i <= schedule.iterations; ++i) {
    for (std::uint64_t v = 0; v < n; ++v) {
      for (auto& [dest, request] : cores[v].make_requests(i, rngs[v])) {
        bus.send(v, dest, WireMsg{true, request, {}}, bits);
      }
    }
    bus.step();
    for (std::uint64_t v = 0; v < n; ++v) {
      for (const auto& envelope : bus.inbox(v)) {
        const auto response =
            cores[v].serve(envelope.payload.request, i, rngs[v]);
        bus.send(v, envelope.payload.request.requester,
                 WireMsg{false, {}, response}, bits);
      }
      cores[v].discard_consumed(i);
    }
    bus.step();
    for (std::uint64_t v = 0; v < n; ++v) {
      for (const auto& envelope : bus.inbox(v)) {
        cores[v].accept(envelope.payload.response, rngs[v]);
      }
    }
  }
  HypercubeSamplingResult result;
  result.rounds = bus.round();
  result.max_node_bits_per_round = meter.max_node_bits_any_round();
  result.samples.resize(n);
  for (std::uint64_t v = 0; v < n; ++v) {
    result.dry_events += cores[v].dry_events();
    result.samples[v] = cores[v].samples();
  }
  result.success = result.dry_events == 0;
  return result;
}

// --- helpers ----------------------------------------------------------------

/// Pass-through hook: delivers every message on time and in order, and
/// counts each kind of call.
class CountingHook final : public sim::DeliveryHook {
 public:
  void on_message(sim::NodeId, sim::NodeId, sim::Round,
                  std::vector<sim::Round>& deliveries) override {
    ++messages;
    deliveries.push_back(0);
  }
  bool reorder(sim::NodeId, sim::Round, std::size_t count,
               std::vector<std::size_t>&) override {
    ++reorders;
    reordered += count;
    return false;
  }
  void on_step(sim::Round) override { ++steps; }

  std::uint64_t messages = 0;
  std::uint64_t reorders = 0;
  std::uint64_t reordered = 0;
  std::uint64_t steps = 0;
};

/// The fault_test.cpp mixed plan: loss, burst, duplication, delay and
/// reordering at once.
fault::FaultPlan nasty_plan() {
  fault::FaultPlan plan;
  plan.with_loss(0.2)
      .with_burst({0.1, 0.3, 0.0, 1.0})
      .with_duplication(0.15)
      .with_delay(0.3, 2)
      .with_reordering();
  return plan;
}

/// A small Lemma 7 schedule (log n underestimated by one step on the
/// log log scale) so the Bus reference stays fast at n = 1024.
Schedule test_schedule(std::size_t n) {
  SamplingConfig config;
  config.c = 2.0;
  return hgraph_schedule(SizeEstimate::from_true_size(n, -1), 8, config);
}

void expect_same(const HGraphSamplingResult& exchange,
                 const HGraphSamplingResult& bus, const std::string& where) {
  EXPECT_EQ(exchange.success, bus.success) << where;
  EXPECT_EQ(exchange.dry_events, bus.dry_events) << where;
  EXPECT_EQ(exchange.rounds, bus.rounds) << where;
  EXPECT_EQ(exchange.max_node_bits_per_round, bus.max_node_bits_per_round)
      << where;
  EXPECT_EQ(exchange.late_copies, bus.late_copies) << where;
  EXPECT_EQ(exchange.samples, bus.samples) << where;
  EXPECT_EQ(exchange.walk_lengths, bus.walk_lengths) << where;
}

void expect_same(const fault::FaultInjector::Counters& a,
                 const fault::FaultInjector::Counters& b,
                 const std::string& where) {
  EXPECT_EQ(a.offered, b.offered) << where;
  EXPECT_EQ(a.lost_iid, b.lost_iid) << where;
  EXPECT_EQ(a.lost_burst, b.lost_burst) << where;
  EXPECT_EQ(a.crash_drops, b.crash_drops) << where;
  EXPECT_EQ(a.partition_drops, b.partition_drops) << where;
  EXPECT_EQ(a.duplicated, b.duplicated) << where;
  EXPECT_EQ(a.delayed_copies, b.delayed_copies) << where;
  EXPECT_EQ(a.reordered_inboxes, b.reordered_inboxes) << where;
}

constexpr std::size_t kSizes[] = {16, 100, 1024};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};

// --- equivalence ------------------------------------------------------------

TEST(Exchange, HGraphMatchesBusReferenceWithoutHook) {
  for (const std::size_t n : kSizes) {
    for (const std::uint64_t seed : kSeeds) {
      support::Rng rng(seed);
      const auto g = graph::HGraph::random(n, 8, rng);
      const auto schedule = test_schedule(n);
      support::Rng a(seed + 100);
      support::Rng b(seed + 100);
      const auto exchange = run_hgraph_sampling(g, schedule, a);
      const auto bus = bus_hgraph_sampling(g, schedule, b, nullptr);
      const std::string where =
          "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      expect_same(exchange, bus, where);
      EXPECT_TRUE(exchange.success) << where;
      EXPECT_EQ(exchange.late_copies, 0u) << where;
    }
  }
}

TEST(Exchange, HGraphMatchesBusReferenceUnderPassThroughHook) {
  for (const std::size_t n : kSizes) {
    for (const std::uint64_t seed : kSeeds) {
      support::Rng rng(seed);
      const auto g = graph::HGraph::random(n, 8, rng);
      const auto schedule = test_schedule(n);
      support::Rng a(seed + 100);
      support::Rng b(seed + 100);
      CountingHook exchange_hook;
      CountingHook bus_hook;
      const auto exchange = run_hgraph_sampling(g, schedule, a, &exchange_hook);
      const auto bus = bus_hgraph_sampling(g, schedule, b, &bus_hook);
      const std::string where =
          "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      expect_same(exchange, bus, where);
      // Hooked and unhooked runs agree too: the hook passes everything.
      support::Rng c(seed + 100);
      expect_same(run_hgraph_sampling(g, schedule, c), exchange, where);
      EXPECT_EQ(exchange_hook.messages, bus_hook.messages) << where;
      EXPECT_EQ(exchange_hook.reorders, bus_hook.reorders) << where;
      EXPECT_EQ(exchange_hook.reordered, bus_hook.reordered) << where;
      EXPECT_EQ(exchange_hook.steps, bus_hook.steps) << where;
      EXPECT_EQ(exchange_hook.steps,
                static_cast<std::uint64_t>(2 * schedule.iterations))
          << where;
    }
  }
}

TEST(Exchange, HGraphMatchesBusReferenceUnderFaultPlans) {
  struct Case {
    const char* name;
    fault::FaultPlan plan;
  };
  const std::vector<Case> cases = {
      {"none", fault::FaultPlan::none()},
      {"loss", fault::FaultPlan{}.with_loss(0.05)},
      {"crash", fault::FaultPlan{}
                    .with_crash({3, 1, 4})
                    .with_crash({7, 2, -1})
                    .with_crash_rate(0.01, 2)},
      {"partition", fault::FaultPlan{}.with_partition({1, 4, 8, 0})},
      {"nasty", nasty_plan()},
  };
  std::uint64_t delayed = 0;
  std::uint64_t late = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t reordered = 0;
  for (const Case& c : cases) {
    for (const std::size_t n : kSizes) {
      for (const std::uint64_t seed : kSeeds) {
        support::Rng rng(seed);
        const auto g = graph::HGraph::random(n, 8, rng);
        const auto schedule = test_schedule(n);
        fault::FaultInjector exchange_hook(c.plan, support::Rng(seed + 7));
        fault::FaultInjector bus_hook(c.plan, support::Rng(seed + 7));
        support::Rng a(seed + 100);
        support::Rng b(seed + 100);
        const auto exchange =
            run_hgraph_sampling(g, schedule, a, &exchange_hook);
        const auto bus = bus_hgraph_sampling(g, schedule, b, &bus_hook);
        const std::string where = std::string(c.name) +
                                  " n=" + std::to_string(n) +
                                  " seed=" + std::to_string(seed);
        expect_same(exchange, bus, where);
        expect_same(exchange_hook.counters(), bus_hook.counters(), where);
        EXPECT_EQ(exchange_hook.ticks(), bus_hook.ticks()) << where;
        for (const auto& lengths : exchange.walk_lengths) {
          for (const auto length : lengths) {
            EXPECT_EQ(length, schedule.target_walk_length) << where;
          }
        }
        delayed += exchange_hook.counters().delayed_copies;
        late += exchange.late_copies;
        duplicated += exchange_hook.counters().duplicated;
        reordered += exchange_hook.counters().reordered_inboxes;
      }
    }
  }
  // The nasty plan really exercised the three faults only this test pins.
  EXPECT_GT(delayed, 0u);
  EXPECT_GT(late, 0u);
  EXPECT_GT(duplicated, 0u);
  EXPECT_GT(reordered, 0u);
}

TEST(Exchange, HypercubeMatchesBusReference) {
  for (const int dimension : {4, 7, 10}) {
    for (const std::uint64_t seed : kSeeds) {
      const graph::Hypercube cube(dimension);
      SamplingConfig config;
      config.c = 2.0;
      const auto schedule = hypercube_schedule(
          SizeEstimate::from_true_size(cube.size()), dimension, config);
      support::Rng a(seed);
      support::Rng b(seed);
      const auto exchange = run_hypercube_sampling(cube, schedule, a);
      const auto bus = bus_hypercube_sampling(cube, schedule, b);
      const std::string where = "d=" + std::to_string(dimension) +
                                " seed=" + std::to_string(seed);
      EXPECT_EQ(exchange.success, bus.success) << where;
      EXPECT_EQ(exchange.dry_events, bus.dry_events) << where;
      EXPECT_EQ(exchange.rounds, bus.rounds) << where;
      EXPECT_EQ(exchange.max_node_bits_per_round, bus.max_node_bits_per_round)
          << where;
      EXPECT_EQ(exchange.samples, bus.samples) << where;
    }
  }
}

// --- node ranges ------------------------------------------------------------

/// The range count a run over n nodes takes on `cpus` CPUs.
std::size_t expected_ranges(std::size_t n, std::size_t cpus) {
  return std::clamp<std::size_t>(n / kMinRangeNodes, 1, cpus);
}

/// CPU counts 1..4 that the calling thread may narrow its mask to.
std::vector<std::size_t> cpu_counts() {
  std::vector<std::size_t> counts;
  for (std::size_t cpus = 1; cpus <= 4; ++cpus) {
    if (cpus <= runtime::ThreadPool::hardware_workers()) counts.push_back(cpus);
  }
  return counts;
}

/// Flat multisets of 4: a node sends every walk it holds as a request and
/// has none left to serve, so extractions run dry (Lemma 7 does not hold).
Schedule dry_schedule(int iterations) {
  Schedule flat;
  flat.iterations = iterations;
  flat.m.assign(static_cast<std::size_t>(iterations) + 1, 4);
  flat.target_walk_length = std::size_t{1} << iterations;
  return flat;
}

// Each node range counts into its own row and the buckets are laid out in
// (destination, range) order, so the inboxes, the per-node draws and every
// output are the same on 1, 2, 3 or 4 ranges. n = 1000 splits unevenly.
TEST(Exchange, HGraphOutputsAreTheSameOnAnyRangeCount) {
  if (runtime::ThreadPool::hardware_workers() < 2) {
    GTEST_SKIP() << "only one CPU is allowed";
  }
  for (const std::size_t n : {std::size_t{1000}, std::size_t{1024},
                              std::size_t{4096}}) {
    support::Rng rng(n);
    const auto g = graph::HGraph::random(n, 8, rng);
    for (const bool dry : {false, true}) {
      if (dry && n != 1000) continue;
      const Schedule schedule = dry ? dry_schedule(3) : test_schedule(n);
      HGraphSamplingResult reference;
      for (const std::size_t cpus : cpu_counts()) {
        const ScopedCpuMask mask(cpus);
        ASSERT_TRUE(mask.ok());
        support::Rng run_rng(n + 100);
        const auto result = run_hgraph_sampling(g, schedule, run_rng);
        const std::string where = "n=" + std::to_string(n) +
                                  " cpus=" + std::to_string(cpus) +
                                  (dry ? " dry" : "");
        EXPECT_EQ(result.ranges, expected_ranges(n, cpus)) << where;
        if (cpus == 1) {
          reference = result;
          EXPECT_EQ(result.success, !dry) << where;
          continue;
        }
        expect_same(result, reference, where);
      }
    }
  }
}

TEST(Exchange, HypercubeOutputsAreTheSameOnAnyRangeCount) {
  if (runtime::ThreadPool::hardware_workers() < 2) {
    GTEST_SKIP() << "only one CPU is allowed";
  }
  for (const int dimension : {10, 12}) {
    const graph::Hypercube cube(dimension);
    const std::size_t n = cube.size();
    SamplingConfig config;  // c = 1 keeps d = 12 quick
    for (const bool dry : {false, true}) {
      if (dry && dimension != 10) continue;
      const Schedule schedule =
          dry ? dry_schedule(ceil_log2(static_cast<std::size_t>(dimension)))
              : hypercube_schedule(SizeEstimate::from_true_size(n), dimension,
                                   config);
      HypercubeSamplingResult reference;
      for (const std::size_t cpus : cpu_counts()) {
        const ScopedCpuMask mask(cpus);
        ASSERT_TRUE(mask.ok());
        support::Rng run_rng(static_cast<std::uint64_t>(dimension));
        const auto result = run_hypercube_sampling(cube, schedule, run_rng);
        const std::string where = "d=" + std::to_string(dimension) +
                                  " cpus=" + std::to_string(cpus) +
                                  (dry ? " dry" : "");
        EXPECT_EQ(result.ranges, expected_ranges(n, cpus)) << where;
        if (cpus == 1) {
          reference = result;
          EXPECT_EQ(result.success, !dry) << where;
          continue;
        }
        EXPECT_EQ(result.success, reference.success) << where;
        EXPECT_EQ(result.dry_events, reference.dry_events) << where;
        EXPECT_EQ(result.rounds, reference.rounds) << where;
        EXPECT_EQ(result.max_node_bits_per_round,
                  reference.max_node_bits_per_round)
            << where;
        EXPECT_EQ(result.samples, reference.samples) << where;
      }
    }
  }
}

// A hook must see every message in send order, so a hooked run takes one
// range whatever the mask allows.
TEST(Exchange, AHookedRunTakesOneRange) {
  support::Rng rng(5);
  const auto g = graph::HGraph::random(1024, 8, rng);
  const auto schedule = test_schedule(1024);
  CountingHook hook;
  support::Rng a(6);
  const auto hooked = run_hgraph_sampling(g, schedule, a, &hook);
  EXPECT_EQ(hooked.ranges, 1u);
  support::Rng b(6);
  const auto bare = run_hgraph_sampling(g, schedule, b);
  EXPECT_EQ(bare.ranges,
            expected_ranges(1024, runtime::ThreadPool::hardware_workers()));
  expect_same(hooked, bare, "hooked vs bare");
}

// A trial of a parallel TrialRunner already runs on a pool worker, so its
// exchange takes one range instead of nesting a pool per trial.
TEST(Exchange, ARunInsideAParallelTrialTakesOneRange) {
  support::Rng rng(8);
  const auto g = graph::HGraph::random(1024, 8, rng);
  const auto schedule = test_schedule(1024);
  runtime::TrialRunner runner(9, 2);
  const auto results = runner.run(2, [&](runtime::TrialContext&) {
    support::Rng run_rng(10);
    return run_hgraph_sampling(g, schedule, run_rng);
  });
  support::Rng run_rng(10);
  const auto outside = run_hgraph_sampling(g, schedule, run_rng);
  for (const auto& result : results) {
    EXPECT_EQ(result.ranges, 1u);
    expect_same(result, outside, "trial vs calling thread");
  }
}

// --- the iteration rule -----------------------------------------------------

// A copy delayed by two rounds lands in the next iteration's serve or accept
// phase. Used there, a late request would be served with the server's newer
// walks and a late response accepted as a walk of half the length; the
// exchange discards it instead, so every sample still ends a walk of length
// exactly 2^T (Lemma 5).
TEST(Exchange, DelayedCopiesNeverYieldShortWalks) {
  SamplingConfig config;
  config.c = 2.0;
  const auto schedule =
      hgraph_schedule(SizeEstimate::from_true_size(256), 8, config);
  std::size_t runs_with_late_copies = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    support::Rng rng(seed);
    const auto g = graph::HGraph::random(256, 8, rng);
    fault::FaultInjector injector(fault::FaultPlan{}.with_delay(0.002, 2),
                                  rng.split(7));
    auto run_rng = rng.split(1);
    const auto result = run_hgraph_sampling(g, schedule, run_rng, &injector);
    const std::string where = "seed=" + std::to_string(seed);
    ASSERT_GT(injector.counters().delayed_copies, 0u) << where;
    for (const auto& lengths : result.walk_lengths) {
      for (const auto length : lengths) {
        ASSERT_EQ(length, schedule.target_walk_length) << where;
      }
    }
    for (const auto& samples : result.samples) {
      EXPECT_LE(samples.size(), schedule.samples_out()) << where;
    }
    EXPECT_LE(result.late_copies, injector.counters().delayed_copies)
        << where;
    if (result.late_copies > 0) ++runs_with_late_copies;
  }
  EXPECT_GT(runs_with_late_copies, 0u);
}

}  // namespace
}  // namespace reconfnet::sampling
