// An anonymizing relay service under active DoS attack (Section 7.1).
//
// A Tor-style scenario: users exchange messages through a fleet of relay
// servers. An attacker who can observe the relay topology — but only with a
// delay — blocks over a third of the fleet every round, trying to cut users
// off or to learn which exit relays serve which users. Because the fleet
// reorganizes its groups every O(log log n) rounds, the attacker's stale
// knowledge is worthless: messages keep flowing and the exit relays it
// observes look uniformly random.
#include <iostream>
#include <vector>

#include "adversary/dos.hpp"
#include "apps/anonym/anonymizer.hpp"
#include "dos/overlay.hpp"
#include "sim/stale_view.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

int main() {
  using namespace reconfnet;

  // The relay fleet: 512 servers on the DoS-resistant grouped hypercube.
  dos::DosOverlay::Config config;
  config.size = 512;
  config.group_c = 2.0;  // groups of ~32 relays
  config.seed = 99;
  dos::DosOverlay overlay(config);
  std::cout << "relay fleet: " << overlay.size() << " servers, "
            << overlay.groups().supernodes() << " supernodes of ~"
            << overlay.size() / overlay.groups().supernodes()
            << " relays each\n\n";

  // The attacker: isolation strategy, 35% blocking budget, but its topology
  // view is two reconfiguration epochs old.
  support::Rng attacker_rng(13);
  adversary::IsolationDos attacker(attacker_rng);
  dos::Attack attack;
  attack.adversary = &attacker;
  attack.blocked_fraction = 0.35;
  attack.lateness = 40;

  support::Rng rng(7);
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::size_t replied = 0;
  std::vector<std::uint64_t> exit_counts(overlay.size(), 0);

  std::cout << "generation  reconfigured  delivered  replied\n";
  for (int generation = 0; generation < 8; ++generation) {
    // The fleet reorganizes while under attack...
    const auto epoch = overlay.run_epoch(attack);
    // ...then serves a batch of user messages. The attacker keeps blocking
    // during the batch; we draw its per-round blocked sets the same way.
    std::vector<sim::BlockedSet> blocked;
    for (sim::Round r = 0; r < apps::kAnonymizerPipelineRounds; ++r) {
      blocked.push_back(attacker.choose(sim::StaleSnapshotView{},
                                        overlay.groups().all_nodes(),
                                        static_cast<std::size_t>(
                                            0.35 * 512),
                                        overlay.round() + r));
    }
    std::vector<apps::AnonymousRequest> batch(50);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i] = {10000 + sent + i, 20000 + sent + i};
    }
    const auto report = apps::route_anonymous_batch(overlay.groups(), batch,
                                                    blocked, rng);
    sent += report.requests;
    delivered += report.delivered;
    replied += report.replied;
    for (auto exit : report.exit_servers) ++exit_counts[exit];
    std::cout << generation << "           "
              << (epoch.reorganized ? "yes" : "no ") << "           "
              << report.delivered << "/" << report.requests << "      "
              << report.replied << "/" << report.requests << "\n";
  }

  const double tv = support::tv_distance_from_uniform(exit_counts);
  // Sparse-sample noise floor: what TV would truly uniform exits show with
  // the same number of draws over the same number of relays?
  std::vector<std::uint64_t> reference(overlay.size(), 0);
  std::uint64_t draws = 0;
  for (auto count : exit_counts) draws += count;
  for (std::uint64_t i = 0; i < draws; ++i) {
    ++reference[rng.below(overlay.size())];
  }
  const double floor = support::tv_distance_from_uniform(reference);
  std::cout << "\ntotals: " << delivered << "/" << sent
            << " delivered, " << replied << "/" << sent
            << " round-trips completed under a 35% blocking attack\n"
            << "exit-relay TV distance from uniform: " << tv
            << " vs " << floor
            << " for the same number of truly uniform draws — the observed "
            << "exits are as uniform as chance allows, so the attacker "
            << "learns nothing about destinations\n";
  return 0;
}
