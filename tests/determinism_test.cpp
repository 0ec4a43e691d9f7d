// Reproducibility guard for the Rng::split contract (src/support/rng.hpp):
// every protocol node derives its randomness from a single master seed, so
// two runs of the same scenario with the same seed must agree bit for bit.
// These tests compare the byte serialization of the overlays' topology
// snapshots across two independent runs — any hidden dependence on iteration
// order, addresses, or global state shows up as a byte difference.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adversary/churn.hpp"
#include "adversary/dos.hpp"
#include "churn/overlay.hpp"
#include "combined/overlay.hpp"
#include "dos/overlay.hpp"
#include "runtime/trial_runner.hpp"
#include "sim/snapshot.hpp"
#include "support/rng.hpp"

namespace reconfnet {
namespace {

// --- churn overlay ----------------------------------------------------------

/// The churn overlay keeps no snapshot buffer; serialize its ground-truth
/// topology (members plus every Hamilton-cycle edge) into snapshot form.
sim::TopologySnapshot churn_snapshot(const churn::ChurnOverlay& overlay) {
  sim::TopologySnapshot snap;
  snap.round = overlay.round();
  snap.nodes = overlay.members();
  const auto& topology = overlay.topology();
  for (int cycle = 0; cycle < topology.num_cycles(); ++cycle) {
    for (std::size_t v = 0; v < topology.size(); ++v) {
      snap.edges.emplace_back(snap.nodes[v],
                              snap.nodes[topology.succ(cycle, v)]);
    }
  }
  return snap;
}

std::vector<std::uint8_t> run_churn(std::uint64_t seed, int epochs) {
  churn::ChurnOverlay::Config config;
  config.initial_size = 64;
  config.degree = 8;
  config.sampling.c = 2.0;
  config.seed = seed;
  churn::ChurnOverlay overlay(config);
  adversary::UniformChurn churn(0.05, 1.0, 1.0, support::Rng(seed ^ 0xAD));
  for (int epoch = 0; epoch < epochs; ++epoch) {
    overlay.run_epoch(churn);
  }
  return sim::serialize(churn_snapshot(overlay));
}

TEST(Determinism, ChurnOverlaySameSeedIsByteIdentical) {
  const auto first = run_churn(42, 3);
  const auto second = run_churn(42, 3);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Determinism, ChurnOverlayDifferentSeedsDiverge) {
  EXPECT_NE(run_churn(42, 3), run_churn(43, 3));
}

// --- DoS overlay ------------------------------------------------------------

std::vector<std::uint8_t> run_dos(std::uint64_t seed, int epochs) {
  dos::DosOverlay::Config config;
  config.size = 512;
  config.seed = seed;
  dos::DosOverlay overlay(config);
  adversary::RandomDos adversary(support::Rng(seed ^ 0xD0));
  dos::Attack attack;
  attack.adversary = &adversary;
  attack.lateness = 64;
  attack.blocked_fraction = 0.1;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    overlay.run_epoch(attack);
  }
  const auto* latest = overlay.snapshots().latest();
  EXPECT_NE(latest, nullptr);
  return latest != nullptr ? sim::serialize(*latest)
                           : std::vector<std::uint8_t>{};
}

TEST(Determinism, DosOverlaySameSeedIsByteIdentical) {
  const auto first = run_dos(7, 2);
  const auto second = run_dos(7, 2);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Determinism, DosOverlayDifferentSeedsDiverge) {
  EXPECT_NE(run_dos(7, 2), run_dos(8, 2));
}

// --- combined overlay -------------------------------------------------------

std::vector<std::uint8_t> run_combined(std::uint64_t seed, int epochs) {
  combined::CombinedOverlay::Config config;
  config.initial_size = 512;
  config.group_c = 2.0;
  config.seed = seed;
  combined::CombinedOverlay overlay(config);
  adversary::UniformChurn churn(0.02, 1.0, 1.0, support::Rng(seed ^ 0xCA));
  for (int epoch = 0; epoch < epochs; ++epoch) {
    overlay.run_epoch(churn, {});
  }
  const auto* latest = overlay.snapshots().latest();
  EXPECT_NE(latest, nullptr);
  return latest != nullptr ? sim::serialize(*latest)
                           : std::vector<std::uint8_t>{};
}

TEST(Determinism, CombinedOverlaySameSeedIsByteIdentical) {
  const auto first = run_combined(11, 2);
  const auto second = run_combined(11, 2);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(Determinism, CombinedOverlayDifferentSeedsDiverge) {
  EXPECT_NE(run_combined(11, 2), run_combined(12, 2));
}

// --- serialization itself ---------------------------------------------------

TEST(Determinism, SerializationIsInjectiveOnObservableState) {
  sim::TopologySnapshot a;
  a.round = 1;
  a.nodes = {1, 2, 3};
  a.edges = {{1, 2}, {2, 3}};
  sim::TopologySnapshot b = a;
  EXPECT_EQ(sim::serialize(a), sim::serialize(b));
  b.edges[1] = {3, 2};  // orientation matters: these are distinct encodings
  EXPECT_NE(sim::serialize(a), sim::serialize(b));
  b = a;
  b.round = 2;
  EXPECT_NE(sim::serialize(a), sim::serialize(b));
}

// --- parallel trial runtime -------------------------------------------------

/// The experiment runtime extends the same-seed contract across threads: a
/// full overlay scenario fanned over 8 workers must serialize byte-for-byte
/// identically to the serial run, because every trial's randomness derives
/// only from (master_seed, trial_index), never from scheduling.
TEST(Determinism, TrialRunnerParallelMatchesSerialOnOverlayScenario) {
  const auto run_with = [](std::size_t jobs) {
    runtime::TrialRunner runner(0xD15EA5E, jobs);
    return runner.run(12, [](runtime::TrialContext& trial) {
      dos::DosOverlay::Config config;
      config.size = 256;
      config.group_c = 2.0;
      config.seed = trial.derive_seed();
      dos::DosOverlay overlay(config);
      adversary::RandomDos adversary(trial.rng.split(1));
      dos::Attack attack;
      attack.adversary = &adversary;
      attack.lateness = 16;
      attack.blocked_fraction = 0.3;
      (void)overlay.run_epoch(attack);
      const auto* latest = overlay.snapshots().latest();
      return latest != nullptr ? sim::serialize(*latest)
                               : std::vector<std::uint8_t>{};
    });
  };
  const auto serial = run_with(1);
  const auto parallel_result = run_with(8);
  ASSERT_EQ(serial.size(), parallel_result.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel_result[i]) << "trial " << i;
  }
}

}  // namespace
}  // namespace reconfnet
