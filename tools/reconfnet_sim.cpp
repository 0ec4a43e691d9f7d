// reconfnet_sim — command-line driver for the reconfnet scenarios.
//
//   reconfnet_sim churn    [--n 256] [--epochs 8] [--turnover 0.02]
//                          [--growth 1.0] [--rate 2.0] [--degree 8] [--c 2.0]
//                          [--adversary uniform|segment|flood|burst|none]
//   reconfnet_sim dos      [--n 1024] [--epochs 4] [--blocked 0.35]
//                          [--lateness 40] [--group-c 2.0] [--static]
//                          [--adversary random|isolation|groupwipe|none]
//   reconfnet_sim combined [--n 1024] [--epochs 4] [--turnover 0.005]
//                          [--growth 1.0] [--blocked 0.25] [--lateness 60]
//                          [--group-c 2.0]
//                          [--adversary random|isolation|groupwipe|none]
//                          (default isolation)
//   reconfnet_sim sample   [--n 1024] [--graph hgraph|hypercube]
//                          [--eps 1.0] [--c 2.0] [--plain]
//   reconfnet_sim estimate [--n 1024] [--slots 32]
//
// The first --adversary listed is the default, except for combined.
//
// Common: [--seed <u64>] [--reps <k>] [--jobs <w>] [--json [path]].
// With --reps > 1 (or --json / --jobs), the scenario runs as a multi-trial
// experiment: per-trial seeds derive deterministically from the master seed,
// trials fan out across workers, and aggregates (plus the raw per-trial
// series) land in a BENCH_sim_<command>.json results file. Output is
// independent of --jobs. Exit code 0 iff every trial met its guarantee.
#include <algorithm>
// reconfnet-lint: allow(RNL003) wall-clock timing metadata for BENCH json
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "adversary/churn.hpp"
#include "adversary/dos.hpp"
#include "churn/overlay.hpp"
#include "churn/reconfigure.hpp"
#include "combined/overlay.hpp"
#include "dos/overlay.hpp"
#include "estimate/size_estimation.hpp"
#include "graph/hgraph.hpp"
#include "graph/hypercube.hpp"
#include "runtime/results.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/trial_runner.hpp"
#include "sampling/hgraph_sampler.hpp"
#include "sampling/hypercube_sampler.hpp"
#include "sampling/plain_walk.hpp"
#include "support/args.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace reconfnet;
using support::Args;

/// One scenario execution: its exit code plus named scalar metrics, so the
/// multi-trial driver can aggregate across seeds.
struct Outcome {
  int exit_code = EXIT_SUCCESS;
  std::vector<std::string> names;
  std::vector<double> values;
};

/// The line naming why `epoch` failed, printed after a run's table.
template <typename Report>
std::string failure_line(int epoch, const Report& report) {
  return "epoch " + std::to_string(epoch) +
         " failed: " + report.failure_reason;
}

Outcome run_churn(const Args& args, std::uint64_t seed, bool verbose) {
  churn::ChurnOverlay::Config config;
  config.initial_size = args.get_size("n", 256);
  config.degree = args.get_int("degree", 8);
  config.sampling.c = args.get_double("c", 2.0);
  config.seed = seed;
  churn::ChurnOverlay overlay(config);

  support::Rng rng(seed + 1);
  const double turnover = args.get_double("turnover", 0.02);
  const double growth = args.get_double("growth", 1.0);
  const double rate = args.get_double("rate", 2.0);
  const std::string kind = args.get_string("adversary", "uniform");
  std::unique_ptr<adversary::ChurnAdversary> adversary;
  adversary::SegmentChurn* segment = nullptr;
  if (kind == "uniform") {
    adversary =
        std::make_unique<adversary::UniformChurn>(turnover, growth, rate, rng);
  } else if (kind == "segment") {
    auto owned = std::make_unique<adversary::SegmentChurn>(turnover, rate, rng);
    segment = owned.get();
    adversary = std::move(owned);
  } else if (kind == "flood") {
    adversary =
        std::make_unique<adversary::SponsorFloodChurn>(turnover, rate, rng);
  } else if (kind == "burst") {
    adversary = std::make_unique<adversary::BurstChurn>(turnover, rate,
                                                        7, rng);
  } else if (kind == "none") {
    adversary = std::make_unique<adversary::NoChurn>();
  } else {
    throw std::invalid_argument("unknown churn adversary: " + kind);
  }

  support::Table table({"epoch", "ok", "members", "joins", "leaves", "rounds",
                        "connected"});
  const int epochs = args.get_int("epochs", 8);
  int failures = 0;
  bool disconnected = false;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t members = 0;
  std::vector<std::string> failed;  // one line per failed epoch
  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (segment != nullptr) segment->set_order(overlay.cycle_order(0));
    const auto report = overlay.run_epoch(*adversary);
    failures += report.success ? 0 : 1;
    if (!report.success) failed.push_back(failure_line(epoch, report));
    disconnected |= !report.connected;
    joins += report.joins_applied;
    leaves += report.leaves_applied;
    members = report.members_after;
    table.add_row(
        {support::Table::num(epoch), report.success ? "yes" : "no",
         support::Table::num(static_cast<std::uint64_t>(report.members_after)),
         support::Table::num(static_cast<std::uint64_t>(report.joins_applied)),
         support::Table::num(
             static_cast<std::uint64_t>(report.leaves_applied)),
         support::Table::num(report.rounds),
         report.connected ? "yes" : "NO"});
  }
  if (verbose) {
    table.print(std::cout);
    for (const std::string& line : failed) std::cout << line << "\n";
    std::cout << "\n"
              << (disconnected ? "DISCONNECTED" : "connected throughout")
              << ", " << failures << "/" << epochs << " epochs retried\n";
  }
  return {disconnected ? EXIT_FAILURE : EXIT_SUCCESS,
          {"epochs_ok", "members_end", "joins_total", "leaves_total",
           "disconnected"},
          {static_cast<double>(epochs - failures),
           static_cast<double>(members), static_cast<double>(joins),
           static_cast<double>(leaves), disconnected ? 1.0 : 0.0}};
}

std::unique_ptr<adversary::DosAdversary> make_dos_adversary(
    const std::string& kind, support::Rng rng) {
  if (kind == "random") return std::make_unique<adversary::RandomDos>(rng);
  if (kind == "isolation") {
    return std::make_unique<adversary::IsolationDos>(rng);
  }
  if (kind == "groupwipe") {
    return std::make_unique<adversary::GroupWipeDos>(rng);
  }
  if (kind == "none") return std::make_unique<adversary::NoDos>();
  throw std::invalid_argument("unknown DoS adversary: " + kind);
}

Outcome run_dos(const Args& args, std::uint64_t seed, bool verbose) {
  dos::DosOverlay::Config config;
  config.size = args.get_size("n", 1024);
  config.group_c = args.get_double("group-c", 2.0);
  config.seed = seed;
  dos::DosOverlay overlay(config);

  auto adversary = make_dos_adversary(args.get_string("adversary", "random"),
                                      support::Rng(seed + 1));
  dos::Attack attack;
  attack.adversary = adversary.get();
  attack.blocked_fraction = args.get_double("blocked", 0.35);
  attack.lateness = args.get_int("lateness", 40);

  if (verbose) {
    std::cout << "grouped hypercube: d=" << overlay.dimension() << ", "
              << overlay.groups().supernodes() << " groups of ~"
              << overlay.size() / overlay.groups().supernodes() << "\n\n";
  }

  support::Table table({"epoch", "ok", "silenced", "disconnected",
                        "min_avail", "grp_min", "grp_max"});
  const int epochs = args.get_int("epochs", 4);
  std::size_t disconnected = 0;
  std::size_t silenced = 0;
  double min_avail = 1.0;
  std::vector<std::string> failed;  // one line per failed epoch
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const auto report = args.has("static")
                            ? overlay.run_static(attack, 16)
                            : overlay.run_epoch(attack);
    if (!report.success) failed.push_back(failure_line(epoch, report));
    disconnected += report.disconnected_rounds;
    silenced += report.silenced_group_rounds;
    min_avail = std::min(min_avail, report.min_available_fraction);
    table.add_row(
        {support::Table::num(epoch), report.success ? "yes" : "no",
         support::Table::num(
             static_cast<std::uint64_t>(report.silenced_group_rounds)),
         support::Table::num(
             static_cast<std::uint64_t>(report.disconnected_rounds)),
         support::Table::num(report.min_available_fraction, 3),
         support::Table::num(
             static_cast<std::uint64_t>(report.min_group_size)),
         support::Table::num(
             static_cast<std::uint64_t>(report.max_group_size))});
  }
  if (verbose) {
    table.print(std::cout);
    for (const std::string& line : failed) std::cout << line << "\n";
    std::cout << "\n"
              << (disconnected == 0 ? "non-blocked nodes stayed connected"
                                    : "DISCONNECTED")
              << "\n";
  }
  return {disconnected == 0 ? EXIT_SUCCESS : EXIT_FAILURE,
          {"silenced_group_rounds", "disconnected_rounds",
           "min_available_fraction"},
          {static_cast<double>(silenced), static_cast<double>(disconnected),
           min_avail}};
}

Outcome run_combined(const Args& args, std::uint64_t seed, bool verbose) {
  combined::CombinedOverlay::Config config;
  config.initial_size = args.get_size("n", 1024);
  config.group_c = args.get_double("group-c", 2.0);
  config.seed = seed;
  combined::CombinedOverlay overlay(config);

  support::Rng rng(seed + 1);
  adversary::UniformChurn churn(args.get_double("turnover", 0.005),
                                args.get_double("growth", 1.0), 4.0, rng);
  auto dos_adversary = make_dos_adversary(
      args.get_string("adversary", "isolation"), support::Rng(seed + 2));
  dos::Attack attack;
  attack.adversary = dos_adversary.get();
  attack.blocked_fraction = args.get_double("blocked", 0.25);
  attack.lateness = args.get_int("lateness", 60);

  support::Table table({"epoch", "ok", "members", "dims", "splits", "merges",
                        "disconnected"});
  const int epochs = args.get_int("epochs", 4);
  std::size_t disconnected = 0;
  double splits = 0.0;
  double merges = 0.0;
  std::size_t members = 0;
  std::vector<std::string> failed;  // one line per failed epoch
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const auto report = overlay.run_epoch(churn, attack);
    if (!report.success) failed.push_back(failure_line(epoch, report));
    disconnected += report.disconnected_rounds;
    splits += report.split_merge.splits;
    merges += report.split_merge.merges;
    members = report.members_after;
    table.add_row(
        {support::Table::num(epoch), report.success ? "yes" : "no",
         support::Table::num(
             static_cast<std::uint64_t>(report.members_after)),
         support::Table::num(report.min_dimension) + ".." +
             support::Table::num(report.max_dimension),
         support::Table::num(report.split_merge.splits),
         support::Table::num(report.split_merge.merges),
         support::Table::num(
             static_cast<std::uint64_t>(report.disconnected_rounds))});
  }
  if (verbose) {
    table.print(std::cout);
    for (const std::string& line : failed) std::cout << line << "\n";
    std::cout << "\n"
              << (disconnected == 0 ? "non-blocked nodes stayed connected"
                                    : "DISCONNECTED")
              << "\n";
  }
  return {disconnected == 0 ? EXIT_SUCCESS : EXIT_FAILURE,
          {"members_end", "splits", "merges", "disconnected_rounds"},
          {static_cast<double>(members), splits, merges,
           static_cast<double>(disconnected)}};
}

Outcome run_sample(const Args& args, std::uint64_t seed, bool verbose) {
  const std::size_t n = args.get_size("n", 1024);
  support::Rng rng(seed);
  sampling::SamplingConfig config;
  config.epsilon = args.get_double("eps", 1.0);
  config.c = args.get_double("c", 2.0);
  const auto estimate = sampling::SizeEstimate::from_true_size(n);

  const std::string graph_kind = args.get_string("graph", "hgraph");
  support::Table table(
      {"graph", "mode", "rounds", "samples/node", "success", "max_kbits"});
  double rounds = 0.0;
  double samples = 0.0;
  double kbits = 0.0;
  bool success = true;
  if (graph_kind == "hgraph") {
    const auto g = graph::HGraph::random(n, 8, rng);
    if (args.has("plain")) {
      const auto walk = sampling::hgraph_mixing_walk_length(n, 8, 1.0);
      auto run_rng = rng.split(1);
      const auto result =
          sampling::run_hgraph_plain_walks(g, 8, walk, run_rng);
      rounds = static_cast<double>(result.rounds);
      samples = 8.0;
      kbits = static_cast<double>(result.max_node_bits_per_round) / 1000.0;
      table.add_row({"hgraph", "plain", support::Table::num(result.rounds),
                     "8", "yes", support::Table::num(kbits, 1)});
    } else {
      const auto schedule = sampling::hgraph_schedule(estimate, 8, config);
      auto run_rng = rng.split(1);
      const auto result = sampling::run_hgraph_sampling(g, schedule, run_rng);
      rounds = static_cast<double>(result.rounds);
      samples = static_cast<double>(result.samples.front().size());
      kbits = static_cast<double>(result.max_node_bits_per_round) / 1000.0;
      success = result.success;
      table.add_row(
          {"hgraph", "rapid", support::Table::num(result.rounds),
           support::Table::num(
               static_cast<std::uint64_t>(result.samples.front().size())),
           result.success ? "yes" : "NO", support::Table::num(kbits, 1)});
    }
  } else if (graph_kind == "hypercube") {
    const int d = sampling::ceil_log2(n);
    const graph::Hypercube cube(d);
    if (args.has("plain")) {
      auto run_rng = rng.split(1);
      const auto result = sampling::run_hypercube_plain_walks(cube, 8, run_rng);
      rounds = static_cast<double>(result.rounds);
      samples = 8.0;
      kbits = static_cast<double>(result.max_node_bits_per_round) / 1000.0;
      table.add_row({"hypercube", "plain",
                     support::Table::num(result.rounds), "8", "yes",
                     support::Table::num(kbits, 1)});
    } else {
      const auto schedule = sampling::hypercube_schedule(estimate, d, config);
      auto run_rng = rng.split(1);
      const auto result =
          sampling::run_hypercube_sampling(cube, schedule, run_rng);
      rounds = static_cast<double>(result.rounds);
      samples = static_cast<double>(result.samples.front().size());
      kbits = static_cast<double>(result.max_node_bits_per_round) / 1000.0;
      success = result.success;
      table.add_row(
          {"hypercube", "rapid", support::Table::num(result.rounds),
           support::Table::num(
               static_cast<std::uint64_t>(result.samples.front().size())),
           result.success ? "yes" : "NO", support::Table::num(kbits, 1)});
    }
  } else {
    throw std::invalid_argument("unknown graph kind: " + graph_kind);
  }
  if (verbose) table.print(std::cout);
  return {success ? EXIT_SUCCESS : EXIT_FAILURE,
          {"rounds", "samples_per_node", "max_kbits_per_node_round", "ok"},
          {rounds, samples, kbits, success ? 1.0 : 0.0}};
}

Outcome run_estimate(const Args& args, std::uint64_t seed, bool verbose) {
  const std::size_t n = args.get_size("n", 1024);
  support::Rng rng(seed);
  const auto g = graph::HGraph::random(n, 8, rng);
  estimate::SizeEstimationConfig config;
  config.slots = args.get_int("slots", 32);
  const auto result = estimate::estimate_size(g, config, rng);
  if (verbose) {
    std::cout << "n=" << n << " log2(n)=" << std::log2(static_cast<double>(n))
              << " estimate=" << result.log_n_upper[0]
              << " k(loglog upper)=" << result.loglog_upper[0]
              << " rounds=" << result.rounds
              << " converged=" << (result.converged ? "yes" : "no") << "\n";
  }
  return {result.converged ? EXIT_SUCCESS : EXIT_FAILURE,
          {"log_n_estimate", "loglog_upper", "rounds", "converged"},
          {result.log_n_upper[0],
           static_cast<double>(result.loglog_upper[0]),
           static_cast<double>(result.rounds),
           result.converged ? 1.0 : 0.0}};
}

Outcome run_scenario(const std::string& command, const Args& args,
                     std::uint64_t seed, bool verbose) {
  if (command == "churn") return run_churn(args, seed, verbose);
  if (command == "dos") return run_dos(args, seed, verbose);
  if (command == "combined") return run_combined(args, seed, verbose);
  if (command == "sample") return run_sample(args, seed, verbose);
  if (command == "estimate") return run_estimate(args, seed, verbose);
  throw std::invalid_argument("unknown command: " + command);
}

/// Multi-trial mode: fan `reps` independently seeded trials across `jobs`
/// workers, aggregate the per-trial metrics, and optionally write a
/// BENCH_sim_<command>.json results file. The table and JSON content are
/// byte-identical for any --jobs value.
int run_multi(const std::string& command, const Args& args,
              std::uint64_t master_seed, std::size_t reps, std::size_t jobs) {
  // reconfnet-lint: allow(RNL003) wall-clock feeds the timing block only
  const auto start = std::chrono::steady_clock::now();
  runtime::TrialRunner runner(master_seed, jobs);
  const auto outcomes =
      runner.run(reps, [&](runtime::TrialContext& trial) {
        return run_scenario(command, args, trial.derive_seed(), false);
      });

  runtime::BenchResults results(
      "sim_" + command, "reconfnet_sim " + command + " multi-trial run",
      "Per-trial metrics across " + support::Table::num(
          static_cast<std::uint64_t>(reps)) + " independently seeded runs.");
  results.set_meta("seed", runtime::Json(master_seed));
  results.set_meta("reps", runtime::Json(static_cast<std::uint64_t>(reps)));
  results.set_meta("command", runtime::Json(command));

  int exit_code = EXIT_SUCCESS;
  std::size_t failed = 0;
  for (const auto& outcome : outcomes) {
    if (outcome.exit_code != EXIT_SUCCESS) {
      exit_code = EXIT_FAILURE;
      ++failed;
    }
  }

  support::Table table({"metric", "mean", "min", "max", "p50"});
  const auto& names = outcomes.front().names;
  for (std::size_t m = 0; m < names.size(); ++m) {
    std::vector<double> series;
    series.reserve(outcomes.size());
    for (const auto& outcome : outcomes) series.push_back(outcome.values[m]);
    const auto summary = results.add_metric("trial", names[m], series);
    table.add_row({names[m], support::Table::num(summary.mean, 3),
                   support::Table::num(summary.min, 3),
                   support::Table::num(summary.max, 3),
                   support::Table::num(summary.p50, 3)});
  }
  std::cout << "reconfnet_sim " << command << ": " << reps << " trials, "
            << (reps - failed) << " ok\n\n";
  table.print(std::cout);
  results.add_note(support::Table::num(static_cast<std::uint64_t>(failed)) +
                   " of " +
                   support::Table::num(static_cast<std::uint64_t>(reps)) +
                   " trials failed their guarantee");
  results.set_exit_code(exit_code);
  // reconfnet-lint: allow(RNL003) wall-clock feeds the timing block only
  const std::chrono::duration<double> wall =
      // reconfnet-lint: allow(RNL003) wall-clock feeds the timing block only
      std::chrono::steady_clock::now() - start;
  results.set_timing(jobs, wall.count());
  if (args.has("json")) {
    std::string path = args.get_string("json", "");
    if (path.empty()) path = "BENCH_sim_" + command + ".json";
    results.write_file(path);
    std::cout << "\n[results written to " << path << "]\n";
  }
  return exit_code;
}

void usage() {
  std::cout <<
      R"(reconfnet_sim <command> [--flag value ...]

commands:
  churn      churn-resistant H-graph overlay       (--n --epochs --turnover
             --growth --rate --degree --c
             --adversary uniform|segment|flood|burst|none)
  dos        DoS-resistant grouped hypercube       (--n --epochs --blocked
             --lateness --group-c --static
             --adversary random|isolation|groupwipe|none)
  combined   churn + DoS with split/merge          (--n --epochs --turnover
             --growth --blocked --lateness --group-c
             --adversary random|isolation|groupwipe|none,
             default isolation)
  sample     one run of the sampling primitive     (--n --graph
             hgraph|hypercube --eps --c --plain)
  estimate   distributed size estimation           (--n --slots)

common: --seed <u64>  --reps <k>  --jobs <workers, 0 = all cores>
        --json [path]   (write BENCH_sim_<command>.json results)

With --reps/--json/--jobs the scenario runs as a deterministic multi-trial
experiment; the output is identical for any --jobs value.
)";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return EXIT_FAILURE;
  }
  const std::string command = argv[1];
  try {
    const Args args(argc, argv, 2, {"static", "plain"}, {"json"});
    const std::uint64_t seed = args.get_u64("seed", 1);
    const std::size_t reps = std::max<std::size_t>(1, args.get_size("reps", 1));
    std::size_t jobs = args.get_size("jobs", 1);
    if (jobs == 0) jobs = runtime::ThreadPool::hardware_workers();
    if (reps > 1 || jobs > 1 || args.has("json")) {
      return run_multi(command, args, seed, reps, jobs);
    }
    return run_scenario(command, args, seed, true).exit_code;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    usage();
    return EXIT_FAILURE;
  }
}
