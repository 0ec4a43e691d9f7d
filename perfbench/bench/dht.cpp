// dht-16k: the open-loop request path. WorkloadDriver pumps Poisson
// arrivals of Zipfian reads and writes into the RoBuSt-lite DHT on n = 16384
// nodes (256 groups, k = 4) with hot-key mitigation on, and the DHT
// reconfigures once every 1024 serving rounds. The `workload` and `apps`
// layers do the work; there is no sim::Bus hot loop and no transport.
#include <bit>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "audit/invariants.hpp"
#include "measure.hpp"
#include "support/stats.hpp"
#include "workload/adapters.hpp"
#include "workload/driver.hpp"

namespace perfbench {

namespace {

using namespace reconfnet;

constexpr std::size_t kNodes = 16384;
constexpr std::size_t kEpochEvery = 1024;
/// A serving run is kPeriods periods of 1024 serving rounds, each ended by
/// a reconfiguration epoch, then kDrainRounds rounds that serve the backlog
/// the last epoch left (WorkloadDriver reconfigures before serving round r
/// when r > 0 and r % 1024 == 0).
constexpr std::size_t kPeriods = 4;
constexpr std::size_t kDrainRounds = 256;
constexpr std::size_t kServingRounds = kPeriods * kEpochEvery + kDrainRounds;
/// Serving runs every run makes; the deterministic metrics come from these.
/// Serving run i uses unit_seed(seed, i), so a run averages over as many
/// inputs as fit in its time.
constexpr int kMinRuns = 3;
/// Bound on the request queue: a growing backlog fails the run.
constexpr std::uint64_t kMaxQueue = 16 * 1024;

workload::DhtAdapterConfig adapter_config(std::uint64_t seed) {
  workload::DhtAdapterConfig config;
  config.size = kNodes;
  config.prefill_keys = kNodes;
  config.seed = seed;
  // Edge lists in the topology snapshots are read only by stale-view epoch
  // adversaries, and this workload has none (KaryGroupedOverlay::Config
  // documents turning them off for such runs). Left on, every epoch builds
  // and drops about 200 MB of edges nobody reads, the kernel spends 40% of
  // the wall time faulting those pages in, and epoch_s measures the host's
  // page-fault path more than the request path. Request outcomes are the
  // same either way.
  config.snapshot_edges = false;
  return config;
}

workload::DriverConfig driver_config() {
  workload::DriverConfig config;
  config.rounds = kServingRounds;
  config.write_fraction = 0.05;
  config.keys.keyspace = kNodes;
  config.keys.theta = 0.99;
  config.arrivals.rate = 128.0;
  config.arrivals.poisson = true;
  config.per_group_capacity = 2;
  config.epoch_every = kEpochEvery;
  config.mitigation.enabled = true;
  config.mitigation.top_k = 8;
  config.mitigation.replicate_threshold = 32;
  config.mitigation.cache_slots = 4;
  config.mitigation.cache_ttl = 16;
  return config;
}

/// Forwards every call to the DHT adapter. It remembers the last value each
/// successful write stored, so the store can be checked key by key after
/// the run, and when tracing it wraps serve and run_epoch in spans.
class DhtProbe final : public workload::AppAdapter {
 public:
  DhtProbe(workload::DhtAdapter* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::size_t group_count() const override {
    return inner_->group_count();
  }
  [[nodiscard]] std::size_t node_count() const override {
    return inner_->node_count();
  }
  [[nodiscard]] std::size_t pipeline_depth() const override {
    return inner_->pipeline_depth();
  }
  [[nodiscard]] std::uint64_t home_group(
      const workload::Op& op) const override {
    return inner_->home_group(op);
  }
  workload::ServeOutcome serve(const workload::Op& op,
                               std::uint64_t entry_group,
                               std::span<const sim::BlockedSet> blocked,
                               support::Rng& rng) override {
    workload::ServeOutcome outcome;
    {
      MaybeScope span(tracer_, "apps.dht.serve", true);
      outcome = inner_->serve(op, entry_group, blocked, rng);
    }
    if (outcome.ok) {
      ++serve_ok_;
      if (op.is_write) written_[op.key] = op.value;
    }
    return outcome;
  }
  workload::EpochOutcome run_epoch(support::Rng& rng) override {
    workload::EpochOutcome outcome;
    {
      MaybeScope span(tracer_, "apps.dht.epoch");
      outcome = inner_->run_epoch(rng);
    }
    epoch_rounds_ += static_cast<std::uint64_t>(outcome.rounds);
    return outcome;
  }
  void set_fault_hook(sim::DeliveryHook* hook) override {
    inner_->set_fault_hook(hook);
  }
  bool peek(std::uint64_t key, std::uint64_t& value) override {
    return inner_->peek(key, value);
  }

  [[nodiscard]] std::uint64_t serve_ok() const { return serve_ok_; }
  [[nodiscard]] std::uint64_t epoch_rounds() const { return epoch_rounds_; }

  /// Every prefilled key must still be readable, holding its prefill value
  /// or the last value written to it.
  void check_store() const {
    for (std::uint64_t key = 0; key < kNodes; ++key) {
      const auto value = inner_->store().peek(key);
      check(value.has_value(),
            "prefilled key " + std::to_string(key) + " is gone");
      const auto written = written_.find(key);
      const std::uint64_t expected =
          written == written_.end() ? workload::DhtAdapter::prefill_value(key)
                                    : written->second;
      check(*value == expected,
            "key " + std::to_string(key) + " holds a wrong value");
    }
  }

 private:
  workload::DhtAdapter* inner_;
  Tracer* tracer_;
  std::map<std::uint64_t, std::uint64_t> written_;
  std::uint64_t serve_ok_ = 0;
  std::uint64_t epoch_rounds_ = 0;
};

/// Everything one serving run produced that must not depend on timing or
/// tracing.
struct Outcome {
  workload::WorkloadReport report;
  std::uint64_t serve_ok = 0;
  std::uint64_t epoch_rounds = 0;

  [[nodiscard]] std::vector<std::uint64_t> key() const {
    return {report.issued,        report.completed,
            report.failed,        report.in_flight,
            report.retries,       report.rounds,
            report.epoch_rounds,  report.epochs_run,
            report.epochs_ok,     report.max_queue,
            report.p50,           report.p99,
            report.p999,          report.max_latency,
            std::bit_cast<std::uint64_t>(report.mean_latency),
            report.mitigation.cache_hits,
            report.mitigation.replica_hits,
            report.mitigation.replications,
            serve_ok,             epoch_rounds};
  }
};

struct Timed {
  Outcome outcome;
  double setup_s = 0.0;
  double run_s = 0.0;
};

/// Builds a fresh adapter, runs one serving run and checks its outputs.
Timed serving_run(std::uint64_t seed, Tracer* tracer) {
  Timed timed;
  const double setup_start = now_s();
  workload::DhtAdapter adapter(adapter_config(seed));
  timed.setup_s = now_s() - setup_start;
  DhtProbe probe(&adapter, tracer);
  workload::WorkloadDriver driver(driver_config(), &probe);
  support::Rng master(seed ^ 0x5EEDULL);
  const double run_start = now_s();
  {
    MaybeScope span(tracer, "workload.driver");
    timed.outcome.report = driver.run(master);
  }
  timed.run_s = now_s() - run_start;
  timed.outcome.serve_ok = probe.serve_ok();
  timed.outcome.epoch_rounds = probe.epoch_rounds();

  const auto& report = timed.outcome.report;
  const auto conservation = audit::check_request_conservation(
      report.issued, report.completed, report.failed, report.in_flight);
  check(conservation.empty(), "audit::check_request_conservation failed");
  check(report.failed == 0,
        std::to_string(report.failed) + " requests failed");
  check(report.max_queue <= kMaxQueue && report.in_flight <= kMaxQueue,
        "the request backlog grew to " + std::to_string(report.max_queue));
  check(report.epochs_run == kPeriods && report.epochs_ok == kPeriods,
        std::to_string(report.epochs_ok) + " of " +
            std::to_string(report.epochs_run) + " epochs succeeded");
  probe.check_store();
  return timed;
}

}  // namespace

Report run_dht(const Options& options) {
  Tracer tracer;
  Tracer* trace = options.trace ? &tracer : nullptr;
  std::vector<double> setup_s;
  std::vector<double> period_s;
  std::vector<double> req_per_s;
  std::vector<double> unit_s;
  double peak_mb = 0.0;  // VmHWM after the first kMinRuns runs
  std::vector<Outcome> outcomes;  // the first kMinRuns runs

  // Traced runs first time one untraced serving run of the first unit's
  // seed: the reference for the tracing overhead and for transparency.
  double reference_s = 0.0;
  std::optional<Outcome> reference;
  if (trace != nullptr) {
    const Timed untraced = serving_run(unit_seed(options.seed, 0), nullptr);
    reference_s = untraced.run_s;
    reference = untraced.outcome;
  }

  std::uint64_t issued = 0;
  std::uint64_t failed = 0;
  double serve_ok = 0.0;
  double retries = 0.0;
  double max_queue = 0.0;
  double hot_hits = 0.0;
  double replications = 0.0;
  double epoch_rounds = 0.0;
  const double start = now_s();
  int runs = 0;
  while (more_units(options, runs, kMinRuns, start)) {
    tracer.set_epoch(runs);
    const Timed timed = serving_run(unit_seed(options.seed, runs), trace);
    const auto& report = timed.outcome.report;
    check(runs > 0 || !reference || reference->key() == timed.outcome.key(),
          "the traced run differs from the untraced run of the same seed");
    setup_s.push_back(timed.setup_s);
    period_s.push_back(timed.run_s / kPeriods);
    req_per_s.push_back(static_cast<double>(report.completed) / timed.run_s);
    unit_s.push_back(timed.run_s);
    issued += report.issued;
    failed += report.failed;
    serve_ok += static_cast<double>(timed.outcome.serve_ok);
    retries += static_cast<double>(report.retries);
    max_queue = std::max(max_queue, static_cast<double>(report.max_queue));
    hot_hits += static_cast<double>(report.mitigation.cache_hits +
                                    report.mitigation.replica_hits);
    replications += static_cast<double>(report.mitigation.replications);
    epoch_rounds += static_cast<double>(timed.outcome.epoch_rounds);
    if (runs < kMinRuns) {
      outcomes.push_back(timed.outcome);
      peak_mb = peak_rss_mb();
    }
    ++runs;
  }

  Report out;
  out.attempted = issued;
  out.failed = failed;
  std::vector<double> rounds;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> p999;
  for (const Outcome& outcome : outcomes) {
    rounds.push_back(static_cast<double>(outcome.epoch_rounds) / kPeriods);
    p50.push_back(static_cast<double>(outcome.report.p50));
    p99.push_back(static_cast<double>(outcome.report.p99));
    p999.push_back(static_cast<double>(outcome.report.p999));
    out.fingerprint["run" + std::to_string(out.fingerprint.size())] =
        join(outcome.key());
  }
  if (trace == nullptr) {
    out.add("setup_s", support::summarize(setup_s).p50, "s");
    out.add("epoch_s", lower_quartile(period_s), "s");
    out.add("peak_rss_mb", peak_mb, "MB");
    out.add("rounds_per_epoch", support::summarize(rounds).p50, "rounds");
  } else {
    const double n = static_cast<double>(runs);
    const auto serve_calls =
        static_cast<double>(tracer.calls("apps.dht.serve"));
    out.add("apps.dht.serve.busy_s", tracer.busy_s("apps.dht.serve") / n, "s");
    out.add("apps.dht.serve.calls", serve_calls / n, "count");
    out.add("apps.dht.serve.ok_ratio", serve_ok / serve_calls, "ratio");
    out.add("apps.dht.epoch.busy_s", tracer.busy_s("apps.dht.epoch") / n, "s");
    out.add("apps.dht.epoch.calls",
            static_cast<double>(tracer.calls("apps.dht.epoch")) / n, "count");
    out.add("apps.dht.epoch.rounds", epoch_rounds / n, "rounds");
    out.add("workload.driver.self_s", tracer.self_s("workload.driver") / n,
            "s");
    out.add("workload.retries", retries / n, "count");
    out.add("workload.max_queue", max_queue, "count");
    out.add("workload.hot_hit_ratio",
            hot_hits / static_cast<double>(issued), "ratio");
    out.add("workload.replications", replications / n, "count");
    out.add("trace.overhead_s", unit_s.front() - reference_s, "s");
    tracer.write(options.trace_dir + "/spans-dht-16k-seed" +
                 std::to_string(options.seed) + ".tsv");
  }
  out.note("req_per_s", support::summarize(req_per_s).p50, "1/s");
  out.note("p50_rounds", support::summarize(p50).p50, "rounds");
  out.note("p99_rounds", support::summarize(p99).p50, "rounds");
  out.note("p999_rounds", support::summarize(p999).p50, "rounds");
  out.note("requests_per_run", static_cast<double>(issued) / runs, "count");
  return out;
}

}  // namespace perfbench
