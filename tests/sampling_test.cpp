#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/hgraph.hpp"
#include "graph/hypercube.hpp"
#include "sampling/hgraph_sampler.hpp"
#include "sampling/hypercube_sampler.hpp"
#include "sampling/plain_walk.hpp"
#include "sampling/schedule.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace reconfnet::sampling {
namespace {

TEST(CeilLog2, KnownValues) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(8), 3);
  EXPECT_EQ(ceil_log2(9), 4);
  EXPECT_THROW(ceil_log2(0), std::invalid_argument);
}

TEST(SizeEstimate, UpperBoundsLogLogN) {
  // n = 65536: log log n = 4 exactly.
  const auto est = SizeEstimate::from_true_size(65536);
  EXPECT_EQ(est.loglog_upper(), 4);
  EXPECT_EQ(est.log_n_estimate(), 16u);
  // Slack shifts k additively (Section 4's additive deviation model).
  const auto loose = SizeEstimate::from_true_size(65536, 2);
  EXPECT_EQ(loose.loglog_upper(), 6);
  EXPECT_EQ(loose.log_n_estimate(), 64u);
}

TEST(SizeEstimate, EstimateDominatesTrueLogN) {
  for (std::size_t n : {16u, 100u, 1024u, 65536u, 1000000u}) {
    const auto est = SizeEstimate::from_true_size(n);
    EXPECT_GE(static_cast<double>(est.log_n_estimate()),
              std::log2(static_cast<double>(n)) - 1e-9)
        << "n=" << n;
  }
}

TEST(Schedule, HGraphMatchesLemma7Shape) {
  const auto est = SizeEstimate::from_true_size(1024);
  SamplingConfig config;
  config.epsilon = 0.5;
  config.c = 2.0;
  config.beta = 2.0;
  const auto schedule = hgraph_schedule(est, 8, config);
  ASSERT_GE(schedule.iterations, 1);
  ASSERT_EQ(schedule.m.size(),
            static_cast<std::size_t>(schedule.iterations) + 1);
  // m_i = (2+eps)^{T-i} c log n: decreasing by factor 2+eps, ending at
  // c log n >= beta log n.
  for (int i = 1; i <= schedule.iterations; ++i) {
    const double ratio =
        static_cast<double>(schedule.m[static_cast<std::size_t>(i - 1)]) /
        static_cast<double>(schedule.m[static_cast<std::size_t>(i)]);
    EXPECT_NEAR(ratio, 2.5, 0.1);
  }
  EXPECT_GE(schedule.samples_out(),
            static_cast<std::size_t>(config.beta *
                                     static_cast<double>(est.log_n_estimate())));
  // Walk length 2^T covers the mixing length of Lemma 2.
  EXPECT_GE(schedule.target_walk_length,
            hgraph_mixing_walk_length(est.log_n_estimate() > 0 ? 1024 : 0, 8,
                                      config.alpha));
}

TEST(Schedule, HypercubeIterationCount) {
  const auto est = SizeEstimate::from_true_size(256);
  SamplingConfig config;
  // d = 8 = 2^3: exactly log2(d) iterations, the paper's log log n.
  EXPECT_EQ(hypercube_schedule(est, 8, config).iterations, 3);
  EXPECT_EQ(hypercube_schedule(est, 6, config).iterations, 3);
  EXPECT_EQ(hypercube_schedule(est, 16, config).iterations, 4);
}

TEST(Schedule, RejectsInvalidConfigs) {
  const auto est = SizeEstimate::from_true_size(256);
  SamplingConfig bad;
  bad.epsilon = 0.0;
  EXPECT_THROW(hgraph_schedule(est, 8, bad), std::invalid_argument);
  bad.epsilon = 1.5;
  EXPECT_THROW(hgraph_schedule(est, 8, bad), std::invalid_argument);
  SamplingConfig c_lt_beta;
  c_lt_beta.c = 1.0;
  c_lt_beta.beta = 2.0;
  EXPECT_THROW(hgraph_schedule(est, 8, c_lt_beta), std::invalid_argument);
  SamplingConfig ok;
  EXPECT_THROW(hgraph_schedule(est, 4, ok), std::invalid_argument);  // d/4 = 1
  EXPECT_THROW(hypercube_schedule(est, 0, ok), std::invalid_argument);
}

// --- Algorithm 1 -----------------------------------------------------------

Schedule small_hgraph_schedule(std::size_t n, double c = 2.0,
                               double epsilon = 1.0) {
  SamplingConfig config;
  config.epsilon = epsilon;
  config.c = c;
  config.beta = 1.0;
  return hgraph_schedule(SizeEstimate::from_true_size(n), 8, config);
}

/// Port table row of vertex v, the input of HGraphSamplerCore::init.
std::vector<std::uint32_t> ports(const graph::HGraph& g, std::size_t v) {
  std::vector<std::uint32_t> row;
  for (const auto w : g.neighbors(v)) {
    row.push_back(static_cast<std::uint32_t>(w));
  }
  return row;
}

/// Number of requests the core made in the current iteration.
std::size_t request_count(const HGraphSamplerCore& core) {
  std::size_t count = 0;
  core.for_each_request(
      [&](std::size_t, const HGraphSamplerCore::Request&) { ++count; });
  return count;
}

TEST(HGraphSamplerCore, InitFillsWithNeighbors) {
  support::Rng rng(1);
  const auto g = graph::HGraph::random(64, 8, rng);
  const auto schedule = small_hgraph_schedule(64);
  HGraphSamplerCore core(5, schedule, rng.split(99));
  core.init(ports(g, 5));
  EXPECT_EQ(core.multiset().size(), schedule.m0());
  const auto nbrs = g.neighbors(5);
  for (const auto& entry : core.multiset()) {
    EXPECT_EQ(entry.length, 1u);
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), entry.vertex), nbrs.end());
  }
}

TEST(HGraphSamplerCore, MakeRequestsExtractsScheduleSizes) {
  support::Rng rng(2);
  const auto g = graph::HGraph::random(64, 8, rng);
  const auto schedule = small_hgraph_schedule(64);
  HGraphSamplerCore core(0, schedule, rng.split(1));
  core.init(ports(g, 0));
  core.make_requests(1);
  EXPECT_EQ(request_count(core), schedule.m[1]);
  EXPECT_EQ(core.multiset().size(), schedule.m0() - schedule.m[1]);
  core.for_each_request(
      [](std::size_t, const HGraphSamplerCore::Request& request) {
        EXPECT_EQ(request.requester, 0u);
        EXPECT_EQ(request.requester_walk_length, 1u);
      });
}

TEST(HGraphSamplerCore, ServeSplicesWalkLengths) {
  support::Rng rng(3);
  const auto g = graph::HGraph::random(64, 8, rng);
  HGraphSamplerCore core(0, small_hgraph_schedule(64), rng.split(1));
  core.init(ports(g, 0));
  const auto response = core.serve({7, 5});
  EXPECT_TRUE(response.ok());
  EXPECT_EQ(response.length, 6u);  // requester's 5 + our stored 1
}

TEST(HGraphSamplerCore, ServeFromM0ReturnsANeighborOneStepLonger) {
  support::Rng rng(5);
  const auto g = graph::HGraph::random(64, 8, rng);
  const auto schedule = small_hgraph_schedule(64);
  HGraphSamplerCore core(9, schedule, rng.split(1));
  core.init(ports(g, 9));  // a temporary row: the core keeps its own copy
  const auto nbrs = g.neighbors(9);
  for (std::uint32_t length = 1; length <= 4; ++length) {
    const auto response = core.serve({3, length});
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.length, length + 1);
    EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), response.vertex),
              nbrs.end());
  }
  EXPECT_EQ(core.multiset().size(), schedule.m0() - 4);
}

TEST(HGraphSamplerCore, InitRejectsMoreThan256Ports) {
  support::Rng rng(6);
  const auto schedule = small_hgraph_schedule(64);
  HGraphSamplerCore core(0, schedule, rng.split(1));
  std::vector<std::uint32_t> row(257, 1);
  EXPECT_THROW(core.init(row), std::invalid_argument);
  // 256 ports fit in a byte; the last one leads to vertex 2.
  row.pop_back();
  row.back() = 2;
  core.init(row);
  ASSERT_EQ(core.multiset().size(), schedule.m0());
  std::size_t last_port = 0;
  for (const auto& entry : core.multiset()) {
    EXPECT_TRUE(entry.vertex == 1 || entry.vertex == 2);
    last_port += entry.vertex == 2 ? 1 : 0;
  }
  EXPECT_GT(last_port, 0u);
}

TEST(HGraphSamplerCore, DryMultisetReportsFailure) {
  support::Rng rng(4);
  const auto g = graph::HGraph::random(64, 8, rng);
  Schedule starved;
  starved.iterations = 1;
  starved.m = {0, 4};  // m_0 = 0: immediately dry
  starved.target_walk_length = 2;
  HGraphSamplerCore core(0, starved, rng.split(1));
  core.init(ports(g, 0));
  core.make_requests(1);
  EXPECT_EQ(request_count(core), 0u);
  EXPECT_GT(core.dry_events(), 0u);
  const auto response = core.serve({1, 1});
  EXPECT_FALSE(response.ok());
}

TEST(HGraphSampling, SucceedsWithLemma7Schedule) {
  support::Rng rng(5);
  const auto g = graph::HGraph::random(256, 8, rng);
  const auto schedule = small_hgraph_schedule(256);
  auto seed = rng.split(1);
  const auto result = run_hgraph_sampling(g, schedule, seed);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.dry_events, 0u);
  for (const auto& samples : result.samples) {
    EXPECT_EQ(samples.size(), schedule.samples_out());
  }
}

TEST(HGraphSampling, Lemma5WalkLengthInvariant) {
  // Every delivered sample must be the endpoint of a walk of length exactly
  // 2^T: the pointer-doubling invariant of Lemma 5.
  support::Rng rng(6);
  const auto g = graph::HGraph::random(128, 8, rng);
  const auto schedule = small_hgraph_schedule(128);
  auto seed = rng.split(1);
  const auto result = run_hgraph_sampling(g, schedule, seed);
  ASSERT_TRUE(result.success);
  for (const auto& lengths : result.walk_lengths) {
    for (auto length : lengths) {
      EXPECT_EQ(length, schedule.target_walk_length);
    }
  }
}

TEST(HGraphSampling, RoundsAreTwoPerIteration) {
  support::Rng rng(7);
  const auto g = graph::HGraph::random(64, 8, rng);
  const auto schedule = small_hgraph_schedule(64);
  auto seed = rng.split(1);
  const auto result = run_hgraph_sampling(g, schedule, seed);
  EXPECT_EQ(result.rounds, 2 * schedule.iterations);
}

TEST(HGraphSampling, SamplesAreAlmostUniform) {
  support::Rng rng(8);
  const std::size_t n = 64;
  const auto g = graph::HGraph::random(n, 8, rng);
  const auto schedule = small_hgraph_schedule(n, 4.0);
  std::vector<std::uint64_t> counts(n, 0);
  for (int run = 0; run < 4; ++run) {
    auto seed = rng.split(static_cast<std::uint64_t>(run));
    const auto result = run_hgraph_sampling(g, schedule, seed);
    ASSERT_TRUE(result.success);
    for (const auto& samples : result.samples) {
      for (auto s : samples) ++counts[s];
    }
  }
  EXPECT_GT(support::chi_square_uniform(counts).p_value, 1e-4);
  EXPECT_LT(support::tv_distance_from_uniform(counts), 0.1);
}

TEST(HGraphSampling, DeterministicGivenSeed) {
  support::Rng graph_rng(9);
  const auto g = graph::HGraph::random(64, 8, graph_rng);
  const auto schedule = small_hgraph_schedule(64);
  support::Rng a(42), b(42);
  const auto ra = run_hgraph_sampling(g, schedule, a);
  const auto rb = run_hgraph_sampling(g, schedule, b);
  EXPECT_EQ(ra.samples, rb.samples);
}

TEST(HGraphSampling, UndersizedScheduleRunsDry) {
  // Lemma 7 needs m_{i-1} > m_i + (received requests); a flat schedule
  // violates it and the algorithm must detect the failure.
  support::Rng rng(10);
  const auto g = graph::HGraph::random(128, 8, rng);
  Schedule flat;
  flat.iterations = 3;
  flat.m = {4, 4, 4, 4};
  flat.target_walk_length = 8;
  auto seed = rng.split(1);
  const auto result = run_hgraph_sampling(g, flat, seed);
  EXPECT_FALSE(result.success);
  EXPECT_GT(result.dry_events, 0u);
}

// --- Algorithm 2 -----------------------------------------------------------

Schedule small_cube_schedule(int dimension, double c = 2.0,
                             double epsilon = 1.0) {
  SamplingConfig config;
  config.epsilon = epsilon;
  config.c = c;
  config.beta = 1.0;
  const std::size_t n = std::size_t{1} << dimension;
  return hypercube_schedule(SizeEstimate::from_true_size(n), dimension,
                            config);
}

TEST(HypercubeSamplerCore, InitRandomizesSingleCoordinate) {
  support::Rng rng(11);
  const int d = 6;
  HypercubeSamplerCore core(d, 0b101010, small_cube_schedule(d));
  core.init(rng);
  for (int j = 1; j <= d; ++j) {
    const auto& block = core.block(j);
    EXPECT_EQ(block.size(), core.schedule().m0());
    const std::uint64_t mask = std::uint64_t{1} << (j - 1);
    for (auto v : block) {
      EXPECT_EQ((v ^ 0b101010u) & ~mask, 0u)
          << "entry differs outside coordinate " << j;
    }
  }
}

TEST(HypercubeSamplerCore, Lemma8WindowInvariant) {
  // Drive the full protocol by hand and check after every iteration that
  // each live block's entries agree with the owner outside the block's
  // coordinate window.
  support::Rng rng(12);
  const int d = 8;
  const auto n = std::uint64_t{1} << d;
  const auto schedule = small_cube_schedule(d);

  std::vector<HypercubeSamplerCore> cores;
  std::vector<support::Rng> rngs;
  for (std::uint64_t v = 0; v < n; ++v) {
    cores.emplace_back(d, v, schedule);
    rngs.push_back(rng.split(v));
    cores.back().init(rngs.back());
  }

  for (int i = 1; i <= schedule.iterations; ++i) {
    // Requests.
    std::vector<std::vector<std::pair<std::uint64_t,
                                      HypercubeSamplerCore::Request>>>
        outgoing(n);
    for (std::uint64_t v = 0; v < n; ++v) {
      outgoing[v] = cores[v].make_requests(i, rngs[v]);
    }
    // Serve and route responses.
    std::vector<std::vector<HypercubeSamplerCore::Response>> responses(n);
    for (std::uint64_t v = 0; v < n; ++v) {
      for (const auto& [dest, request] : outgoing[v]) {
        responses[request.requester].push_back(
            cores[dest].serve(request, i, rngs[dest]));
      }
    }
    for (std::uint64_t v = 0; v < n; ++v) cores[v].discard_consumed(i);
    for (std::uint64_t v = 0; v < n; ++v) {
      for (const auto& response : responses[v]) {
        cores[v].accept(response, rngs[v]);
      }
    }
    // Invariant check.
    for (std::uint64_t v = 0; v < n; ++v) {
      ASSERT_EQ(cores[v].dry_events(), 0u);
      for (int j = 1; j <= d; ++j) {
        if (!HypercubeSamplerCore::live_block(j, i)) continue;
        const int width = cores[v].window_width(j, i);
        std::uint64_t window_mask = 0;
        for (int b = 0; b < width; ++b) {
          window_mask |= std::uint64_t{1} << (j - 1 + b);
        }
        for (auto entry : cores[v].block(j)) {
          EXPECT_EQ((entry ^ v) & ~window_mask, 0u)
              << "iteration " << i << " block " << j;
        }
      }
    }
  }
}

TEST(HypercubeSampling, SucceedsWithLemma9Schedule) {
  support::Rng rng(13);
  const graph::Hypercube cube(8);
  const auto schedule = small_cube_schedule(8);
  auto seed = rng.split(1);
  const auto result = run_hypercube_sampling(cube, schedule, seed);
  EXPECT_TRUE(result.success);
  for (const auto& samples : result.samples) {
    EXPECT_EQ(samples.size(), schedule.samples_out());
  }
  EXPECT_EQ(result.rounds, 2 * schedule.iterations);
}

TEST(HypercubeSampling, SamplesAreExactlyUniform) {
  support::Rng rng(14);
  const graph::Hypercube cube(6);
  const auto schedule = small_cube_schedule(6, 4.0);
  std::vector<std::uint64_t> counts(cube.size(), 0);
  for (int run = 0; run < 4; ++run) {
    auto seed = rng.split(static_cast<std::uint64_t>(run));
    const auto result = run_hypercube_sampling(cube, schedule, seed);
    ASSERT_TRUE(result.success);
    for (const auto& samples : result.samples) {
      for (auto s : samples) ++counts[s];
    }
  }
  EXPECT_GT(support::chi_square_uniform(counts).p_value, 1e-4);
}

TEST(HypercubeSampling, WorksForNonPowerOfTwoDimension) {
  support::Rng rng(15);
  const graph::Hypercube cube(6);  // d = 6 is not a power of two
  const auto schedule = small_cube_schedule(6);
  auto seed = rng.split(1);
  const auto result = run_hypercube_sampling(cube, schedule, seed);
  EXPECT_TRUE(result.success);
  // Samples cover far more than the 2^ceil? window of any single block.
  std::vector<bool> seen(cube.size(), false);
  for (const auto& samples : result.samples) {
    for (auto s : samples) {
      ASSERT_LT(s, cube.size());
      seen[s] = true;
    }
  }
  const auto covered = static_cast<std::size_t>(
      std::count(seen.begin(), seen.end(), true));
  EXPECT_GT(covered, cube.size() / 2);
}

TEST(HypercubeSampling, DeterministicGivenSeed) {
  const graph::Hypercube cube(5);
  const auto schedule = small_cube_schedule(5);
  support::Rng a(77), b(77);
  const auto ra = run_hypercube_sampling(cube, schedule, a);
  const auto rb = run_hypercube_sampling(cube, schedule, b);
  EXPECT_EQ(ra.samples, rb.samples);
}

// --- Baselines -------------------------------------------------------------

TEST(PlainWalk, HGraphRoundsAreWalkLengthPlusReport) {
  support::Rng rng(16);
  const auto g = graph::HGraph::random(64, 8, rng);
  auto seed = rng.split(1);
  const auto result = run_hgraph_plain_walks(g, 3, 10, seed);
  EXPECT_EQ(result.rounds, 11);
  for (const auto& samples : result.samples) {
    EXPECT_EQ(samples.size(), 3u);
  }
}

TEST(PlainWalk, HypercubeIsExactlyUniform) {
  support::Rng rng(17);
  const graph::Hypercube cube(4);
  auto seed = rng.split(1);
  const auto result = run_hypercube_plain_walks(cube, 400, seed);
  EXPECT_EQ(result.rounds, cube.dimension() + 1);
  std::vector<std::uint64_t> counts(cube.size(), 0);
  for (const auto& samples : result.samples) {
    for (auto s : samples) ++counts[s];
  }
  EXPECT_GT(support::chi_square_uniform(counts).p_value, 1e-4);
}

TEST(PlainWalk, MixingLengthMatchesLemma2) {
  // t = ceil(2 alpha log_{d/4} n): for d = 8, base 2, so t = 2 alpha log2 n.
  EXPECT_EQ(hgraph_mixing_walk_length(1024, 8, 1.0), 20u);
  EXPECT_EQ(hgraph_mixing_walk_length(1024, 8, 2.0), 40u);
  EXPECT_THROW(hgraph_mixing_walk_length(1024, 4, 1.0),
               std::invalid_argument);
}

TEST(PlainWalk, RapidSamplingUsesExponentiallyFewerRounds) {
  // The headline claim (F1): Theta(log log n) vs Theta(log n) rounds.
  support::Rng rng(18);
  const std::size_t n = 1024;
  const auto g = graph::HGraph::random(n, 8, rng);
  const auto schedule = small_hgraph_schedule(n);
  auto seed1 = rng.split(1);
  const auto rapid = run_hgraph_sampling(g, schedule, seed1);
  const auto walk_length = hgraph_mixing_walk_length(n, 8, 1.0);
  auto seed2 = rng.split(2);
  const auto plain = run_hgraph_plain_walks(g, 1, walk_length, seed2);
  EXPECT_TRUE(rapid.success);
  EXPECT_LT(rapid.rounds * 2, plain.rounds)
      << "rapid=" << rapid.rounds << " plain=" << plain.rounds;
}

}  // namespace
}  // namespace reconfnet::sampling
