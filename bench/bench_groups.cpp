// Experiment F3 (Lemmas 16/17): group sizes concentrate around n/N, and
// under a (1/2-eps)-bounded attack that cannot see the fresh groups, every
// group keeps available representatives.
#include <cstdlib>
#include <iostream>
#include <vector>

#include "adversary/dos.hpp"
#include "bench/common.hpp"
#include "dos/overlay.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace reconfnet;
  const bench::BenchSpec spec{
      "F3_groups", "F3: group sizes and availability (Lemmas 16/17)",
      "Claim: (1-delta) n/N < |R(x)| < (1+delta) n/N w.h.p., and blocking "
      "any (1/2-eps) fraction leaves every group an available node when the "
      "groups are fresh."};
  return bench::bench_main(argc, argv, spec, [](bench::Context& ctx) {
    std::cout << "Group size concentration after reorganizations:\n\n";
    support::Table sizes(
        {"n", "N", "avg", "min", "max", "min/avg", "max/avg"});
    const std::vector<std::size_t> sizes_cells{512, 1024, 2048, 4096};
    bench::sweep(
        ctx, sizes, sizes_cells,
        {"supernodes", "avg_group", "min_group", "max_group"},
        [](std::size_t n) { return "n=" + support::Table::num(
                                       static_cast<std::uint64_t>(n)); },
        [&](std::size_t n, runtime::TrialContext& trial) {
          dos::DosOverlay::Config config;
          config.size = n;
          config.group_c = 1.0;
          config.seed = trial.derive_seed();
          dos::DosOverlay overlay(config);
          std::size_t min_size = n;
          std::size_t max_size = 0;
          for (int epoch = 0; epoch < 3; ++epoch) {
            const auto report = overlay.run_epoch({});
            if (!report.success) continue;
            min_size = std::min(min_size, report.min_group_size);
            max_size = std::max(max_size, report.max_group_size);
          }
          return std::vector<double>{
              static_cast<double>(overlay.groups().supernodes()),
              static_cast<double>(n) /
                  static_cast<double>(overlay.groups().supernodes()),
              static_cast<double>(min_size), static_cast<double>(max_size)};
        },
        [&](std::size_t n, const std::vector<double>& mean) {
          return std::vector<std::string>{
              support::Table::num(static_cast<std::uint64_t>(n)),
              support::Table::num(mean[0], ctx.reps > 1 ? 1 : 0),
              support::Table::num(mean[1], 1),
              support::Table::num(mean[2], ctx.reps > 1 ? 1 : 0),
              support::Table::num(mean[3], ctx.reps > 1 ? 1 : 0),
              support::Table::num(mean[2] / mean[1], 2),
              support::Table::num(mean[3] / mean[1], 2)};
        });
    ctx.show("group_sizes", sizes);

    std::cout << "\nAvailability under (1/2-eps)-bounded random blocking "
                 "(n=1024, group_c=2, lateness >> 2t):\n\n";
    support::Table avail({"eps", "blocked_frac", "epochs_ok",
                          "min_avail_frac", "silenced_grp_rounds"});
    const std::vector<double> eps_cells{0.35, 0.25, 0.15, 0.05};
    bench::sweep(
        ctx, avail, eps_cells,
        {"epochs_ok", "min_available_fraction", "silenced_group_rounds"},
        [](double eps) { return "eps=" + support::Table::num(eps, 2); },
        [&](double eps, runtime::TrialContext& trial) {
          dos::DosOverlay::Config config;
          config.size = 1024;
          config.group_c = 2.0;
          config.seed = trial.derive_seed();
          dos::DosOverlay overlay(config);
          adversary::RandomDos adversary(trial.rng.split(1));
          dos::Attack attack;
          attack.adversary = &adversary;
          attack.lateness = 1000;
          attack.blocked_fraction = 0.5 - eps;
          double ok = 0.0;
          double min_avail = 1.0;
          double silenced = 0.0;
          for (int epoch = 0; epoch < 4; ++epoch) {
            const auto report = overlay.run_epoch(attack);
            ok += report.success ? 1.0 : 0.0;
            min_avail = std::min(min_avail, report.min_available_fraction);
            silenced += static_cast<double>(report.silenced_group_rounds);
          }
          return std::vector<double>{ok, min_avail, silenced};
        },
        [&](double eps, const std::vector<double>& mean) {
          return std::vector<std::string>{
              support::Table::num(eps, 2),
              support::Table::num(0.5 - eps, 2),
              support::Table::num(mean[0], ctx.reps > 1 ? 2 : 0) + "/4",
              support::Table::num(mean[1], 3),
              support::Table::num(mean[2], ctx.reps > 1 ? 1 : 0)};
        });
    ctx.show("availability", avail);
    ctx.interpret(
        "Group sizes concentrate within a small constant of n/N as n grows "
        "(Lemma 16). Even at 45% blocked per round, no group of the freshly "
        "randomized assignment is ever fully silenced (Lemma 17) — though "
        "the worst-case available fraction shrinks as eps -> 0, which is "
        "exactly why the constant c must grow with 1/eps.");
    return EXIT_SUCCESS;
  });
}
