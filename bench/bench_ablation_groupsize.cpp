// Ablation A3 (Lemma 17): the group-size constant c of the DoS overlay.
// Small groups get fully blocked by a (1/2-eps)-bounded adversary even when
// it is blind (late); Lemma 17's "choose c large enough" is a real knob.
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
      "A3_groupsize", "A3: ablation — group-size constant c (Lemma 17)",
      "Silencing probability under 35% late random blocking as the "
      "group-size constant varies (n = 1024)."};
  return bench::bench_main(argc, argv, spec, [](bench::Context& ctx) {
    constexpr int kEpochs = 4;
    support::Table table({"group_c", "dim", "avg_group", "epochs_ok",
                          "silenced_grp_rounds", "min_avail"});
    const std::vector<double> cells{0.25, 0.5, 1.0, 2.0, 3.0};
    bench::sweep(
        ctx, table, cells,
        {"dimension", "avg_group", "epochs_ok", "silenced_group_rounds",
         "min_available_fraction"},
        [](double group_c) {
          return "group_c=" + support::Table::num(group_c, 2);
        },
        [&](double group_c, runtime::TrialContext& trial) {
          dos::DosOverlay::Config config;
          config.size = 1024;
          config.group_c = group_c;
          config.seed = trial.derive_seed();
          dos::DosOverlay overlay(config);
          adversary::RandomDos adversary(trial.rng.split(1));
          dos::Attack attack;
          attack.adversary = &adversary;
          attack.lateness = 1000;  // fully blind: pure Lemma 17 regime
          attack.blocked_fraction = 0.35;

          double ok = 0.0;
          double silenced = 0.0;
          double min_avail = 1.0;
          for (int epoch = 0; epoch < kEpochs; ++epoch) {
            const auto report = overlay.run_epoch(attack);
            ok += report.success ? 1.0 : 0.0;
            silenced += static_cast<double>(report.silenced_group_rounds);
            min_avail = std::min(min_avail, report.min_available_fraction);
          }
          const double avg = static_cast<double>(overlay.size()) /
                             static_cast<double>(overlay.groups().supernodes());
          return std::vector<double>{
              static_cast<double>(overlay.dimension()), avg, ok, silenced,
              min_avail};
        },
        [&](double group_c, const std::vector<double>& mean) {
          const int digits = ctx.reps > 1 ? 2 : 0;
          return std::vector<std::string>{
              support::Table::num(group_c, 2),
              support::Table::num(mean[0], digits),
              support::Table::num(mean[1], 1),
              support::Table::num(mean[2], digits) + "/" +
                  support::Table::num(kEpochs),
              support::Table::num(mean[3], digits),
              support::Table::num(mean[4], 3)};
        });
    ctx.show("group_c_sweep", table);
    ctx.interpret(
        "With tiny groups (c <= 1/2, ~5 nodes/group) the union of two "
        "consecutive 35% blocking rounds regularly covers an entire group "
        "and epochs fail; from c ~ 2 (groups of ~30) silencing vanishes. "
        "This is the quantitative content of Lemma 17's 'we can choose a "
        "constant c'.");
    return EXIT_SUCCESS;
  });
}
