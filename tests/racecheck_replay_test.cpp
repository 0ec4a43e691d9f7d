// Schedule-perturbation replay harness for the dynamic half of the
// concurrency checker (src/runtime/racecheck.hpp, DESIGN.md §13).
//
// The determinism contract (DESIGN.md §7) says the pool schedule cannot leak
// into results. These tests hold the runtime to it: each scenario runs once
// under the natural production schedule, then again under three adversarial
// schedules — reversed submission, a seeded shuffle, and a steal storm that
// funnels every task through worker 0's queue — plus the serial reference
// path, and asserts the byte serialization of the results is identical
// every time. Scenarios cover every registered parallel region shape: a raw
// parallel_for slot fill, a TrialRunner grid over churn-overlay epochs,
// workload-driver trials with and without injected faults, and the sampler
// exchange's node ranges.
//
// The ownership tracker's own semantics (slot i written exactly once, by
// task i; violations thrown from the submitting thread) are pinned by the
// negative tests at the bottom.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/churn.hpp"
#include "churn/overlay.hpp"
#include "cpu_mask.hpp"
#include "graph/hgraph.hpp"
#include "graph/hypercube.hpp"
#include "runtime/racecheck.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/trial_runner.hpp"
#include "sampling/hgraph_sampler.hpp"
#include "sampling/hypercube_sampler.hpp"
#include "sampling/schedule.hpp"
#include "sim/snapshot.hpp"
#include "support/rng.hpp"
#include "workload/adapters.hpp"
#include "workload/driver.hpp"

namespace reconfnet {
namespace {

namespace racecheck = runtime::racecheck;
using runtime::parallel_for;
using runtime::ThreadPool;
using runtime::TrialContext;
using runtime::TrialRunner;

/// Every schedule a region must replay identically under. kNatural first:
/// it is the baseline the others are compared against.
const std::vector<std::pair<racecheck::Schedule, const char*>>& schedules() {
  static const std::vector<std::pair<racecheck::Schedule, const char*>> all = {
      {racecheck::Schedule::kNatural, "natural"},
      {racecheck::Schedule::kReverse, "reverse"},
      {racecheck::Schedule::kSeeded, "seeded"},
      {racecheck::Schedule::kStealStorm, "steal-storm"},
  };
  return all;
}

void append_bytes(std::vector<std::uint8_t>& out, const void* data,
                  std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), bytes, bytes + size);
}

template <typename T>
void append_value(std::vector<std::uint8_t>& out, const T& value) {
  append_bytes(out, &value, sizeof(value));
}

/// Tracker + schedule state for one replay run; restores production state.
class ScheduleGuard {
 public:
  ScheduleGuard(racecheck::Schedule schedule, std::uint64_t seed) {
    racecheck::set_enabled(true);
    racecheck::set_schedule(schedule, seed);
  }
  ~ScheduleGuard() {
    racecheck::set_schedule(racecheck::Schedule::kNatural, 0);
    racecheck::set_enabled(false);
  }
};

/// Runs `scenario(jobs)` under the natural schedule and every adversarial
/// one (and serially) and asserts byte-identical output throughout.
template <typename Scenario>
void expect_schedule_invariant(const char* name, Scenario&& scenario) {
  std::vector<std::uint8_t> baseline;
  {
    ScheduleGuard guard(racecheck::Schedule::kNatural, 0);
    baseline = scenario(4);
  }
  ASSERT_FALSE(baseline.empty()) << name;
  {
    ScheduleGuard guard(racecheck::Schedule::kNatural, 0);
    EXPECT_EQ(baseline, scenario(1)) << name << ": serial reference diverged";
  }
  for (const auto& [schedule, label] : schedules()) {
    ScheduleGuard guard(schedule, 0xFEED5EED);
    EXPECT_EQ(baseline, scenario(4))
        << name << ": schedule " << label << " leaked into the results";
  }
}

// --- replay scenarios -------------------------------------------------------

TEST(RacecheckReplay, RawParallelForSlotFill) {
  expect_schedule_invariant("parallel_for", [](std::size_t jobs) {
    std::vector<std::uint64_t> slots(96, 0);
    ThreadPool pool(jobs);
    parallel_for(pool, slots.size(), [&slots](std::size_t i) {
      support::Rng rng = support::Rng(0xABCD).split(i);
      std::uint64_t acc = 0;
      for (int draw = 0; draw < 64; ++draw) acc ^= rng.next();
      slots[i] = acc;
    });
    std::vector<std::uint8_t> bytes;
    for (const std::uint64_t v : slots) append_value(bytes, v);
    return bytes;
  });
}

TEST(RacecheckReplay, ChurnOverlayEpochGrid) {
  expect_schedule_invariant("churn-epochs", [](std::size_t jobs) {
    TrialRunner runner(0xC0FFEE, jobs);
    const auto snapshots =
        runner.run(12, [](TrialContext& trial) {
          churn::ChurnOverlay::Config config;
          config.initial_size = 48;
          config.degree = 6;
          config.sampling.c = 2.0;
          config.seed = trial.derive_seed();
          churn::ChurnOverlay overlay(config);
          adversary::UniformChurn churn_adversary(
              0.05, 1.0, 1.0, support::Rng(trial.derive_seed()));
          for (int epoch = 0; epoch < 2; ++epoch) {
            overlay.run_epoch(churn_adversary);
          }
          sim::TopologySnapshot snap;
          snap.round = overlay.round();
          snap.nodes = overlay.members();
          return sim::serialize(snap);
        });
    std::vector<std::uint8_t> bytes;
    for (const auto& snap : snapshots) {
      bytes.insert(bytes.end(), snap.begin(), snap.end());
    }
    return bytes;
  });
}

std::vector<std::uint8_t> workload_trials(std::size_t jobs, bool faults) {
  TrialRunner runner(faults ? 0xFA17 : 0x10AD, jobs);
  const auto reports = runner.run(8, [faults](TrialContext& trial) {
    workload::PubSubAdapterConfig adapter_config;
    adapter_config.size = 128;
    adapter_config.topics = 16;
    adapter_config.seed = trial.derive_seed();
    workload::DriverConfig config;
    config.rounds = 48;
    config.write_fraction = 0.3;
    config.keys.keyspace = adapter_config.topics;
    config.keys.theta = 0.9;
    config.arrivals.rate = 2.0;
    config.arrivals.poisson = true;
    config.per_group_capacity = 2;
    config.epoch_every = 16;
    if (faults) config.faults = fault::FaultPlan{}.with_loss(0.02);
    workload::PubSubAdapter adapter(adapter_config);
    return workload::run_workload(config, adapter, trial.rng);
  });
  std::vector<std::uint8_t> bytes;
  for (const auto& report : reports) {
    append_value(bytes, report.issued);
    append_value(bytes, report.completed);
    append_value(bytes, report.failed);
    append_value(bytes, report.in_flight);
    append_value(bytes, report.retries);
    append_value(bytes, report.fault_lost_legs);
    append_value(bytes, report.rounds);
    append_value(bytes, report.epochs_run);
    append_value(bytes, report.epochs_ok);
    append_value(bytes, report.max_queue);
    append_value(bytes, report.throughput);
    append_value(bytes, report.p50);
    append_value(bytes, report.p99);
    append_value(bytes, report.p999);
    append_value(bytes, report.mean_latency);
  }
  return bytes;
}

TEST(RacecheckReplay, WorkloadDriverTrials) {
  expect_schedule_invariant("workload", [](std::size_t jobs) {
    return workload_trials(jobs, /*faults=*/false);
  });
}

TEST(RacecheckReplay, WorkloadDriverTrialsUnderFaults) {
  expect_schedule_invariant("workload-faults", [](std::size_t jobs) {
    return workload_trials(jobs, /*faults=*/true);
  });
}

/// Both samplers at n = 1024, on one node range per allowed CPU; the serial
/// reference (jobs = 1) narrows the mask to one CPU, so it runs one range.
std::vector<std::uint8_t> exchange_outputs(std::size_t jobs) {
  std::optional<ScopedCpuMask> mask;
  if (jobs == 1) mask.emplace(1);
  std::vector<std::uint8_t> bytes;
  support::Rng rng(0x5A3);
  const auto g = graph::HGraph::random(1024, 8, rng);
  sampling::SamplingConfig config;
  config.c = 2.0;
  support::Rng hgraph_rng = rng.split(1);
  const auto walks = sampling::run_hgraph_sampling(
      g,
      sampling::hgraph_schedule(sampling::SizeEstimate::from_true_size(1024),
                                8, config),
      hgraph_rng);
  append_value(bytes, walks.dry_events);
  append_value(bytes, walks.rounds);
  append_value(bytes, walks.max_node_bits_per_round);
  for (std::size_t v = 0; v < walks.samples.size(); ++v) {
    for (const std::size_t sample : walks.samples[v]) {
      append_value(bytes, sample);
    }
    for (const std::size_t length : walks.walk_lengths[v]) {
      append_value(bytes, length);
    }
  }
  const graph::Hypercube cube(10);
  support::Rng cube_rng = rng.split(2);
  const auto cube_samples = sampling::run_hypercube_sampling(
      cube,
      sampling::hypercube_schedule(
          sampling::SizeEstimate::from_true_size(cube.size()), 10, config),
      cube_rng);
  append_value(bytes, cube_samples.dry_events);
  append_value(bytes, cube_samples.max_node_bits_per_round);
  for (const auto& samples : cube_samples.samples) {
    for (const std::uint64_t sample : samples) append_value(bytes, sample);
  }
  return bytes;
}

TEST(RacecheckReplay, SamplerExchangeRanges) {
  expect_schedule_invariant("exchange", exchange_outputs);
}

// --- ownership tracker semantics --------------------------------------------

TEST(RacecheckReplay, WrongSlotWriteThrowsFromSubmittingThread) {
  ScheduleGuard guard(racecheck::Schedule::kNatural, 0);
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 16,
                   [](std::size_t i) {
                     racecheck::note_slot_write((i + 1) % 16);
                   }),
      std::logic_error);
}

TEST(RacecheckReplay, DoubleSlotWriteThrows) {
  ScheduleGuard guard(racecheck::Schedule::kNatural, 0);
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 16,
                            [](std::size_t i) {
                              racecheck::note_slot_write(i);
                              racecheck::note_slot_write(i);
                            }),
               std::logic_error);
}

TEST(RacecheckReplay, OwnSlotWritesAreClean) {
  ScheduleGuard guard(racecheck::Schedule::kNatural, 0);
  ThreadPool pool(4);
  EXPECT_NO_THROW(parallel_for(
      pool, 16, [](std::size_t i) { racecheck::note_slot_write(i); }));
}

TEST(RacecheckReplay, SerialTrialRunnerIsTrackedToo) {
  ScheduleGuard guard(racecheck::Schedule::kNatural, 0);
  TrialRunner runner(1, 1);
  const auto results =
      runner.run(8, [](TrialContext& trial) { return trial.index; });
  ASSERT_EQ(results.size(), 8u);  // note_slot_write(i) ran clean serially
}

TEST(RacecheckReplay, DisabledTrackerIgnoresViolations) {
  racecheck::set_enabled(false);
  ThreadPool pool(2);
  EXPECT_NO_THROW(parallel_for(pool, 8, [](std::size_t i) {
    racecheck::note_slot_write((i + 1) % 8);
  }));
}

TEST(RacecheckReplay, EnvironmentStateRoundTrips) {
  const bool was = racecheck::enabled();
  racecheck::set_enabled(true);
  EXPECT_TRUE(racecheck::enabled());
  racecheck::set_schedule(racecheck::Schedule::kSeeded, 99);
  EXPECT_EQ(racecheck::schedule(), racecheck::Schedule::kSeeded);
  EXPECT_EQ(racecheck::schedule_seed(), 99u);
  racecheck::set_schedule(racecheck::Schedule::kNatural, 0);
  racecheck::set_enabled(was);
}

}  // namespace
}  // namespace reconfnet
