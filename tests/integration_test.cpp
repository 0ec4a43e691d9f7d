// Integration tests: long multi-epoch scenarios that exercise several
// subsystems together, the way a deployment would.
#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "adversary/churn.hpp"
#include "adversary/dos.hpp"
#include "apps/anonym/anonymizer.hpp"
#include "apps/dht/kary_overlay.hpp"
#include "apps/dht/robust_store.hpp"
#include "apps/pubsub/pubsub.hpp"
#include "churn/overlay.hpp"
#include "combined/overlay.hpp"
#include "dos/overlay.hpp"
#include "estimate/size_estimation.hpp"
#include "graph/hgraph.hpp"
#include "sampling/hgraph_sampler.hpp"
#include "support/rng.hpp"

namespace reconfnet {
namespace {

TEST(Integration, TwentyEpochChurnMarathon) {
  // A long-lived swarm: 20 epochs (~400 rounds) of sustained churn with
  // alternating adversary styles. Connectivity must hold at every epoch and
  // the membership algebra must stay exact.
  churn::ChurnOverlay::Config config;
  config.initial_size = 200;
  config.sampling.c = 2.0;
  config.seed = 91;
  churn::ChurnOverlay overlay(config);

  support::Rng rng(92);
  adversary::UniformChurn uniform(0.015, 1.0, 2.0, rng.split(1));
  adversary::SegmentChurn segment(0.015, 2.0, rng.split(2));
  adversary::BurstChurn burst(0.25, 2.0, 5, rng.split(3));

  std::unordered_set<sim::NodeId> departed;
  int retries = 0;
  for (int epoch = 0; epoch < 20; ++epoch) {
    std::unordered_set<sim::NodeId> before(overlay.members().begin(),
                                           overlay.members().end());
    adversary::ChurnAdversary* adversary =
        epoch % 3 == 0
            ? static_cast<adversary::ChurnAdversary*>(&uniform)
            : epoch % 3 == 1
                  ? static_cast<adversary::ChurnAdversary*>(&segment)
                  : static_cast<adversary::ChurnAdversary*>(&burst);
    if (epoch % 3 == 1) segment.set_order(overlay.cycle_order(0));
    const auto report = overlay.run_epoch(*adversary);
    retries += report.success ? 0 : 1;
    ASSERT_TRUE(report.connected) << "epoch " << epoch;
    // Monotonic membership across the whole marathon.
    for (sim::NodeId id : overlay.members()) {
      ASSERT_FALSE(departed.contains(id)) << "id " << id << " resurrected";
    }
    for (sim::NodeId id : before) {
      std::unordered_set<sim::NodeId> now(overlay.members().begin(),
                                          overlay.members().end());
      if (!now.contains(id)) departed.insert(id);
    }
  }
  EXPECT_LE(retries, 4);
  EXPECT_GT(departed.size(), 100u);  // substantial turnover happened
  EXPECT_GE(overlay.members().size(), 20u);  // shrunk but alive and connected
}

TEST(Integration, DosOverlayLongSiegeWithRetargeting) {
  // Ten epochs under an isolation attacker that re-reads the freshest
  // permitted snapshot every round; lateness equals two epoch lengths.
  dos::DosOverlay::Config config;
  config.size = 1024;
  config.group_c = 2.0;
  config.seed = 93;
  dos::DosOverlay overlay(config);
  support::Rng rng(94);
  adversary::IsolationDos adversary(rng);
  dos::Attack attack;
  attack.adversary = &adversary;
  attack.blocked_fraction = 0.3;
  attack.lateness = 40;
  std::size_t disconnected = 0;
  int reorganized = 0;
  for (int epoch = 0; epoch < 10; ++epoch) {
    const auto report = overlay.run_epoch(attack);
    disconnected += report.disconnected_rounds;
    reorganized += report.reorganized ? 1 : 0;
  }
  EXPECT_EQ(disconnected, 0u);
  EXPECT_GE(reorganized, 8);
}

TEST(Integration, EstimationBootstrapsTheChurnOverlay) {
  // Full pipeline without any oracle: estimate the size distributively,
  // then run reconfiguration epochs using the estimated k.
  support::Rng rng(95);
  const std::size_t n = 256;
  const auto g = graph::HGraph::random(n, 8, rng);
  estimate::SizeEstimationConfig est_config;
  est_config.slots = 32;
  est_config.margin = 2.0;
  const auto estimation = estimate::estimate_size(g, est_config, rng);
  ASSERT_TRUE(estimation.converged);

  churn::ChurnOverlay::Config config;
  config.initial_size = n;
  config.sampling.c = 2.0;
  // Feed the protocol-derived bound through the oracle's slack parameter:
  // slack = estimated k - oracle's own k.
  const auto oracle = sampling::SizeEstimate::from_true_size(n);
  config.size_estimate_slack =
      estimation.loglog_upper[0] - oracle.loglog_upper();
  config.seed = 96;
  churn::ChurnOverlay overlay(config);
  support::Rng churn_rng(97);
  adversary::UniformChurn churn(0.02, 1.0, 2.0, churn_rng);
  for (int epoch = 0; epoch < 4; ++epoch) {
    const auto report = overlay.run_epoch(churn);
    ASSERT_TRUE(report.connected);
  }
}

TEST(Integration, DhtServesWorkloadAcrossManyReconfigurations) {
  // A store that keeps serving while the overlay reorganizes five times,
  // with fresh blocking each phase. No record may ever be lost.
  apps::KaryGroupedOverlay::Config config;
  config.size = 512;
  config.arity = 4;
  config.group_c = 2.0;
  config.seed = 98;
  apps::KaryGroupedOverlay overlay(config);
  apps::RobustStore store(&overlay);
  support::Rng rng(99);

  std::uint64_t next_key = 0;
  for (int phase = 0; phase < 5; ++phase) {
    const std::size_t pipeline =
        static_cast<std::size_t>(overlay.cube().dimension()) + 2;
    std::vector<sim::BlockedSet> blocked(pipeline);
    for (auto& set : blocked) {
      for (sim::NodeId node = 0; node < 512; ++node) {
        if (rng.bernoulli(0.25)) set.insert(node);
      }
    }
    // Write a fresh batch...
    std::vector<apps::RobustStore::Request> writes;
    for (int i = 0; i < 40; ++i) {
      writes.push_back({true, next_key, next_key * 2});
      ++next_key;
    }
    const auto wrote = store.execute(writes, blocked, rng);
    EXPECT_EQ(wrote.write_ok, 40u) << "phase " << phase;
    // ...reconfigure...
    const auto epoch = store.reconfigure({});
    ASSERT_TRUE(epoch.success) << epoch.failure_reason;
    // ...and read EVERYTHING ever written through fresh blocking.
    std::vector<apps::RobustStore::Request> reads;
    for (std::uint64_t key = 0; key < next_key; ++key) {
      reads.push_back({false, key, 0});
    }
    const auto read = store.execute(reads, blocked, rng);
    EXPECT_EQ(read.read_ok, next_key) << "phase " << phase;
  }
  EXPECT_EQ(store.record_count(), 200u);
}

TEST(Integration, AnonymizerAcrossGenerationsUnderSiege) {
  // The relay fleet reorganizes repeatedly while serving message batches;
  // delivery never collapses and reorganizations keep succeeding.
  dos::DosOverlay::Config config;
  config.size = 512;
  config.group_c = 2.0;
  config.seed = 100;
  dos::DosOverlay overlay(config);
  support::Rng attacker_rng(101), rng(102);
  adversary::RandomDos attacker(attacker_rng);
  dos::Attack attack;
  attack.adversary = &attacker;
  attack.blocked_fraction = 0.3;
  attack.lateness = 64;

  std::size_t total = 0;
  std::size_t delivered = 0;
  for (int generation = 0; generation < 6; ++generation) {
    const auto epoch = overlay.run_epoch(attack);
    EXPECT_TRUE(epoch.success) << epoch.failure_reason;
    std::vector<sim::BlockedSet> blocked(apps::kAnonymizerPipelineRounds);
    for (auto& set : blocked) {
      for (sim::NodeId node = 0; node < 512; ++node) {
        if (rng.bernoulli(0.3)) set.insert(node);
      }
    }
    std::vector<apps::AnonymousRequest> requests(40);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      requests[i] = {5000 + total + i, 6000 + total + i};
    }
    const auto report = apps::route_anonymous_batch(overlay.groups(),
                                                    requests, blocked, rng);
    total += report.requests;
    delivered += report.delivered;
  }
  EXPECT_GT(delivered, total * 95 / 100);
}

TEST(Integration, CombinedOverlayFullLifecycle) {
  // Grow from 512 to ~1.5x, crash some nodes, shrink back under blocking —
  // dimensions adapt, membership stays monotonic, connectivity holds.
  combined::CombinedOverlay::Config config;
  config.initial_size = 512;
  config.group_c = 2.0;
  config.seed = 103;
  combined::CombinedOverlay overlay(config);
  support::Rng rng(104);
  adversary::RandomDos dos_adversary(rng.split(1));
  dos::Attack attack;
  attack.adversary = &dos_adversary;
  attack.blocked_fraction = 0.2;
  attack.lateness = 60;

  // Growth phase.
  adversary::UniformChurn grow(0.01, 3.0, 8.0, rng.split(2));
  for (int epoch = 0; epoch < 4; ++epoch) {
    const auto report = overlay.run_epoch(grow, attack);
    EXPECT_EQ(report.disconnected_rounds, 0u);
    EXPECT_LE(report.max_dimension - report.min_dimension, 2);
  }
  const std::size_t peak = overlay.size();
  EXPECT_GT(peak, 512u);

  // Crash 5% of the survivors.
  const auto members = overlay.members();
  for (std::size_t i = 0; i < members.size() / 20; ++i) {
    overlay.crash(members[i * 20]);
  }

  // Shrink phase.
  adversary::UniformChurn shrink(0.005, 0.0, 2.0, rng.split(3));
  for (int epoch = 0; epoch < 4; ++epoch) {
    const auto report = overlay.run_epoch(shrink, attack);
    EXPECT_EQ(report.disconnected_rounds, 0u);
    EXPECT_LE(report.max_dimension - report.min_dimension, 2);
  }
  EXPECT_LT(overlay.size(), peak);
  EXPECT_TRUE(overlay.crashed().empty());
}

}  // namespace
}  // namespace reconfnet
