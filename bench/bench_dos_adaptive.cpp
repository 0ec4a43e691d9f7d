// Experiment A5: the adaptive group-learning adversary. AdaptiveDos watches
// its own blocked-set feedback — did the groups it wiped last time survive
// until the next stale snapshot? — and folds the answer into a persistence
// estimate that gates how much budget goes into targeted group wipes versus
// blind random blocking. Against a static overlay persistence converges to 1
// and the attack stays fully targeted; against the reconfiguring overlay with
// lateness >= one epoch the attacked groups dissolve before they can be
// re-observed, persistence decays, and the learning adversary does no better
// than RandomDos at the same budget.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/dos.hpp"
#include "bench/common.hpp"
#include "dos/overlay.hpp"
#include "support/rng.hpp"

namespace {

using namespace reconfnet;

dos::DosOverlay::Config make_config(std::uint64_t seed) {
  dos::DosOverlay::Config config;
  config.size = 1024;
  config.group_c = 2.0;
  config.seed = seed;
  return config;
}

struct Cell {
  std::string strategy;  // "adaptive" or "random"
  int lateness = 0;
};

// Sentinel for "persistence is not a thing this strategy tracks".
constexpr double kNoPersistence = -1.0;

std::string persistence_cell(double value, int precision) {
  return value < 0.0 ? "-" : support::Table::num(value, precision);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace reconfnet;
  const bench::BenchSpec spec{
      "A5_dos_adaptive",
      "A5: adaptive group-learning DoS vs random blocking at equal budget",
      "Claim: an adversary that learns group persistence from its own "
      "blocked-set feedback gains nothing over random blocking against the "
      "reconfiguring overlay once its information is an epoch late, while "
      "the same learner converges to persistence 1 and stays fully targeted "
      "against a static overlay."};
  return bench::bench_main(argc, argv, spec, [](bench::Context& ctx) {
    constexpr double kBlockedFraction = 0.35;
    constexpr int kEpochs = 4;

    std::vector<Cell> cells;
    for (const std::string strategy : {"adaptive", "random"}) {
      for (const int lateness : {0, 16, 32}) {
        cells.push_back({strategy, lateness});
      }
    }

    support::Table table({"adversary", "lateness", "epochs_ok",
                          "silenced_grp_rounds", "disconnected_rounds",
                          "min_avail", "persistence"});
    bench::sweep(
        ctx, table, cells,
        {"epochs_ok", "silenced_group_rounds", "disconnected_rounds",
         "min_available_fraction", "final_persistence"},
        [](const Cell& cell) {
          return cell.strategy + "/lateness=" +
                 support::Table::num(cell.lateness);
        },
        [&](const Cell& cell, runtime::TrialContext& trial) {
          dos::DosOverlay overlay(make_config(trial.derive_seed()));
          adversary::AdaptiveDos adaptive(trial.rng.split(1));
          adversary::RandomDos random(trial.rng.split(2));
          dos::Attack attack;
          attack.adversary = cell.strategy == "adaptive"
                                 ? static_cast<adversary::DosAdversary*>(
                                       &adaptive)
                                 : &random;
          attack.lateness = cell.lateness;
          attack.blocked_fraction = kBlockedFraction;
          double ok = 0.0;
          double silenced = 0.0;
          double disconnected = 0.0;
          double min_avail = 1.0;
          for (int epoch = 0; epoch < kEpochs; ++epoch) {
            const auto report = overlay.run_epoch(attack);
            ok += report.success ? 1.0 : 0.0;
            silenced += static_cast<double>(report.silenced_group_rounds);
            disconnected += static_cast<double>(report.disconnected_rounds);
            min_avail = std::min(min_avail, report.min_available_fraction);
          }
          const double persistence = cell.strategy == "adaptive"
                                         ? adaptive.persistence()
                                         : kNoPersistence;
          return std::vector<double>{ok, silenced, disconnected, min_avail,
                                     persistence};
        },
        [&](const Cell& cell, const std::vector<double>& mean) {
          return std::vector<std::string>{
              cell.strategy, support::Table::num(cell.lateness),
              support::Table::num(mean[0], ctx.reps > 1 ? 2 : 0) + "/" +
                  support::Table::num(kEpochs),
              support::Table::num(mean[1], ctx.reps > 1 ? 1 : 0),
              support::Table::num(mean[2], ctx.reps > 1 ? 1 : 0),
              support::Table::num(mean[3], 3),
              persistence_cell(mean[4], 2)};
        });
    ctx.show("adaptive_sweep", table);

    std::cout << "\nBaseline: static overlay (no reconfiguration), 80 rounds, "
                 "lateness 32 — stale information stays accurate forever, so "
                 "the learner's persistence estimate converges to 1:\n\n";
    support::Table baseline({"adversary", "silenced_grp_rounds",
                             "disconnected_rounds", "min_avail", "survived",
                             "persistence"});
    const std::vector<Cell> static_cells{{"adaptive", 32}, {"random", 32}};
    bench::sweep(
        ctx, baseline, static_cells,
        {"silenced_group_rounds", "disconnected_rounds",
         "min_available_fraction", "survived", "final_persistence"},
        [](const Cell& cell) { return "static/" + cell.strategy; },
        [&](const Cell& cell, runtime::TrialContext& trial) {
          dos::DosOverlay overlay(make_config(trial.derive_seed()));
          adversary::AdaptiveDos adaptive(trial.rng.split(1));
          adversary::RandomDos random(trial.rng.split(2));
          dos::Attack attack;
          attack.adversary = cell.strategy == "adaptive"
                                 ? static_cast<adversary::DosAdversary*>(
                                       &adaptive)
                                 : &random;
          attack.lateness = cell.lateness;
          attack.blocked_fraction = kBlockedFraction;
          const auto report = overlay.run_static(attack, 80);
          const double persistence = cell.strategy == "adaptive"
                                         ? adaptive.persistence()
                                         : kNoPersistence;
          return std::vector<double>{
              static_cast<double>(report.silenced_group_rounds),
              static_cast<double>(report.disconnected_rounds),
              report.min_available_fraction, report.success ? 1.0 : 0.0,
              persistence};
        },
        [&](const Cell& cell, const std::vector<double>& mean) {
          return std::vector<std::string>{
              cell.strategy, support::Table::num(mean[0], ctx.reps > 1 ? 1 : 0),
              support::Table::num(mean[1], ctx.reps > 1 ? 1 : 0),
              support::Table::num(mean[2], 3), mean[3] >= 1.0 ? "yes" : "NO",
              persistence_cell(mean[4], 2)};
        });
    baseline.print(std::cout);
    ctx.results->add_table("static_baseline", baseline);
    ctx.interpret(
        "Learning needs persistence to pay off. On the static overlay the "
        "adaptive adversary's feedback loop confirms every attacked group "
        "still exists (persistence -> 1), the full budget stays in targeted "
        "group wipes, and it damages the overlay at least as badly as random "
        "blocking. On the reconfiguring overlay with lateness >= one epoch, "
        "each group it attacks has been reshuffled before the next stale "
        "snapshot can confirm the hit, persistence decays geometrically, and "
        "its outcome converges to RandomDos at the same budget — the "
        "Section 5 guarantee holds even against an adversary that adapts, "
        "because the only feedback channel it has is itself t rounds late.");
    return EXIT_SUCCESS;
  });
}
