// churn-4k: Algorithm 3 epochs of the churn-resistant overlay at n = 4096
// under uniform churn (the `reconfnet_sim churn` defaults). Rapid node
// sampling over sim::Bus does nearly all of the work, so this workload
// loads the `sampling` and `sim` layers and no transport or workload code.
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "adversary/churn.hpp"
#include "audit/invariants.hpp"
#include "churn/overlay.hpp"
#include "graph/connectivity.hpp"
#include "measure.hpp"
#include "sampling/hgraph_sampler.hpp"
#include "sampling/schedule.hpp"
#include "sim/bus.hpp"
#include "support/percentiles.hpp"
#include "support/stats.hpp"

namespace perfbench {

namespace {

using namespace reconfnet;

constexpr std::size_t kNodes = 4096;
constexpr int kDegree = 8;
constexpr double kSamplingC = 2.0;
constexpr double kTurnover = 0.02;
constexpr double kGrowth = 1.0;
constexpr double kRate = 2.0;
/// Overlay constructions timed for the setup_s median before each epoch.
/// Spread over the run, they sample the host as the whole run sees it: on a
/// shared host the same construction takes 0.27 or 0.39 ms depending on
/// what the other tenants of the core are doing at that moment.
constexpr int kSetupsPerEpoch = 21;
/// Epochs every run makes; the deterministic metrics come from these.
constexpr int kMinEpochs = 3;

churn::ChurnOverlay::Config overlay_config(std::uint64_t seed,
                                           sim::DeliveryHook* hook) {
  churn::ChurnOverlay::Config config;
  config.initial_size = kNodes;
  config.degree = kDegree;
  config.sampling.c = kSamplingC;
  config.seed = seed;
  config.fault_hook = hook;
  return config;
}

/// Pass-through delivery hook: delivers every message on time, in order,
/// and counts deliveries and bus steps.
class CountingHook final : public sim::DeliveryHook {
 public:
  void on_message(sim::NodeId, sim::NodeId, sim::Round,
                  std::vector<sim::Round>& deliveries) override {
    ++deliveries_;
    deliveries.push_back(0);
  }
  bool reorder(sim::NodeId, sim::Round, std::size_t,
               std::vector<std::size_t>&) override {
    return false;
  }
  void on_step(sim::Round) override { ++steps_; }

  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }

 private:
  std::uint64_t deliveries_ = 0;
  std::uint64_t steps_ = 0;
};

/// Wraps the churn strategy: remembers the round each join was prescribed
/// in, so join latency can be read off once the join is woven in, and
/// times the strategy when tracing.
class JoinClock final : public adversary::ChurnAdversary {
 public:
  JoinClock(adversary::ChurnAdversary* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  adversary::ChurnBatch next(const adversary::ChurnView& view,
                             sim::IdAllocator& ids) override {
    MaybeScope span(tracer_, "adversary.churn");
    auto batch = inner_->next(view, ids);
    for (const auto& [fresh, sponsor] : batch.joins) {
      prescribed_[fresh] = view.round;
    }
    return batch;
  }

  /// Appends the latency of every pending join that is now a member: from
  /// the round it was prescribed to `now`, the end of the weaving epoch.
  void settle(const std::vector<sim::NodeId>& members, sim::Round now,
              std::vector<std::uint64_t>& latencies) {
    for (const sim::NodeId id : members) {
      const auto it = prescribed_.find(id);
      if (it == prescribed_.end()) continue;
      latencies.push_back(static_cast<std::uint64_t>(now - it->second));
      prescribed_.erase(it);
    }
  }

 private:
  adversary::ChurnAdversary* inner_;
  Tracer* tracer_;
  std::unordered_map<sim::NodeId, sim::Round> prescribed_;
};

/// Epoch 0 of a fresh overlay, untraced: the reference the traced run's
/// first epoch must reproduce, and whose wall time the tracing overhead is
/// measured against.
struct Reference {
  double wall_s = 0.0;
  sim::Round rounds = 0;
  std::uint64_t max_bits = 0;
  std::uint64_t member_hash = 0;
};

Reference untraced_first_epoch(std::uint64_t seed) {
  churn::ChurnOverlay overlay(overlay_config(seed, nullptr));
  adversary::UniformChurn churn(kTurnover, kGrowth, kRate,
                                support::Rng(seed + 1));
  const double start = now_s();
  const auto report = overlay.run_epoch(churn);
  Reference reference;
  reference.wall_s = now_s() - start;
  check(report.success, "reference epoch failed: " + report.failure_reason);
  reference.rounds = report.rounds;
  reference.max_bits = report.max_node_bits_per_round;
  reference.member_hash = fnv1a(overlay.members());
  return reference;
}

}  // namespace

Report run_churn(const Options& options) {
  Tracer tracer;
  Tracer* trace = options.trace ? &tracer : nullptr;
  const Reference reference =
      options.trace ? untraced_first_epoch(options.seed) : Reference{};

  CountingHook bus_hook;
  const auto config =
      overlay_config(options.seed, options.trace ? &bus_hook : nullptr);
  std::vector<double> setup_s;
  churn::ChurnOverlay overlay(config);

  adversary::UniformChurn churn(kTurnover, kGrowth, kRate,
                                support::Rng(options.seed + 1));
  JoinClock clock(&churn, trace);

  std::vector<double> epoch_s;
  std::vector<double> unit_s;  // traced: epoch plus its probes
  std::vector<std::uint64_t> latencies;
  std::vector<std::int64_t> rounds;
  std::vector<std::uint64_t> max_bits;
  std::vector<std::uint64_t> member_hashes;
  double peak_mb = 0.0;  // VmHWM after the first kMinEpochs epochs
  double minflt = 0.0;
  double sys_s = 0.0;
  double sampling_rss_mb = 0.0;
  double sampling_deliveries = 0.0;
  double sampling_dry = 0.0;
  double audit_violations = 0.0;

  const double start = now_s();
  int epoch = 0;
  while (more_units(options, epoch, kMinEpochs, start)) {
    for (int i = 0; i < kSetupsPerEpoch; ++i) {
      const double setup_start = now_s();
      const churn::ChurnOverlay fresh(config);
      setup_s.push_back(now_s() - setup_start);
    }
    tracer.set_epoch(epoch);
    const double unit_start = now_s();
    const Usage before = usage_now();
    churn::ChurnOverlay::EpochReport report;
    {
      MaybeScope span(trace, "churn.epoch");
      report = overlay.run_epoch(clock);
    }
    const double wall = now_s() - unit_start;
    const Usage after = usage_now();
    epoch_s.push_back(wall);
    minflt += static_cast<double>(after.minflt - before.minflt);
    sys_s += after.sys_s - before.sys_s;

    check(report.success, "epoch " + std::to_string(epoch) +
                              " failed: " + report.failure_reason);
    check(report.connected,
          "epoch " + std::to_string(epoch) + " left the overlay disconnected");
    const auto& members = overlay.members();
    check(members.size() == kNodes,
          "member count moved to " + std::to_string(members.size()) +
              " at growth 1.0");
    const auto& topology = overlay.topology();
    std::vector<audit::Violation> violations;
    {
      MaybeScope span(trace, "audit");
      violations = audit::check_hgraph(topology, kDegree);
    }
    audit_violations += static_cast<double>(violations.size());
    check(violations.empty() && topology.size() == members.size(),
          "audit::check_hgraph found " + std::to_string(violations.size()) +
              " violations");
    if (epoch < kMinEpochs) {
      clock.settle(members, overlay.round(), latencies);
      rounds.push_back(report.rounds);
      max_bits.push_back(report.max_node_bits_per_round);
      member_hashes.push_back(fnv1a(members));
      peak_mb = peak_rss_mb();
    }

    if (trace != nullptr) {
      {
        MaybeScope span(trace, "graph.connectivity");
        check(graph::is_connected(
                  topology.size(),
                  [&](std::size_t v,
                      const std::function<void(std::size_t)>& visit) {
                    for (auto w : topology.neighbors(v)) visit(w);
                  }),
              "graph::is_connected disagrees with the epoch report");
      }
      const auto schedule = sampling::hgraph_schedule(
          sampling::SizeEstimate::from_true_size(members.size()), kDegree,
          config.sampling);
      auto rng = support::Rng(options.seed).split(
          static_cast<std::uint64_t>(epoch) + 1000);
      CountingHook sampling_hook;
      reset_peak_rss();
      sampling::HGraphSamplingResult sampled;
      {
        MaybeScope span(trace, "sampling.hgraph");
        sampled = sampling::run_hgraph_sampling(topology, schedule, rng,
                                                &sampling_hook);
      }
      sampling_rss_mb = std::max(sampling_rss_mb, peak_rss_mb());
      sampling_deliveries += static_cast<double>(sampling_hook.deliveries());
      sampling_dry += static_cast<double>(sampled.dry_events);
      unit_s.push_back(now_s() - unit_start);
    }
    ++epoch;
  }

  Report out;
  out.attempted = static_cast<std::uint64_t>(epoch);
  out.failed = 0;
  const double epochs = static_cast<double>(epoch);
  std::vector<double> rounds_d(rounds.begin(), rounds.end());
  double max_kbits = 0.0;
  for (auto bits : max_bits) {
    max_kbits = std::max(max_kbits, static_cast<double>(bits) / 1000.0);
  }
  if (trace == nullptr) {
    out.add("setup_s", support::summarize(setup_s).p50, "s");
    out.add("epoch_s", lower_quartile(epoch_s), "s");
    out.add("peak_rss_mb", peak_mb, "MB");
    out.add("rounds_per_epoch", support::summarize(rounds_d).p50, "rounds");
  } else {
    const double busy = tracer.busy_s("churn.epoch") / epochs;
    const double deliveries =
        static_cast<double>(bus_hook.deliveries()) / epochs;
    out.add("churn.epoch.busy_s", busy, "s");
    out.add("churn.epoch.minflt", minflt / epochs, "count");
    out.add("churn.epoch.sys_s", sys_s / epochs, "s");
    out.add("sim.bus.deliveries", deliveries, "count");
    out.add("sim.bus.steps", static_cast<double>(bus_hook.steps()) / epochs,
            "count");
    out.add("sim.bus.ns_per_delivery", busy / deliveries * 1e9, "ns");
    out.add("sampling.hgraph.busy_s", tracer.busy_s("sampling.hgraph") / epochs,
            "s");
    out.add("sampling.hgraph.deliveries", sampling_deliveries / epochs,
            "count");
    out.add("sampling.hgraph.dry_events", sampling_dry / epochs, "count");
    out.add("sampling.hgraph.peak_rss_mb", sampling_rss_mb, "MB");
    out.add("adversary.churn.busy_s", tracer.busy_s("adversary.churn") / epochs,
            "s");
    out.add("graph.connectivity.busy_s",
            tracer.busy_s("graph.connectivity") / epochs, "s");
    out.add("audit.busy_s", tracer.busy_s("audit") / epochs, "s");
    out.add("audit.violations", audit_violations / epochs, "count");
    check(rounds.front() == reference.rounds &&
              max_bits.front() == reference.max_bits &&
              member_hashes.front() == reference.member_hash,
          "the traced first epoch differs from the untraced one");
    out.add("trace.overhead_s", unit_s.front() - reference.wall_s, "s");
    tracer.write(options.trace_dir + "/spans-churn-4k-seed" +
                 std::to_string(options.seed) + ".tsv");
  }
  support::Percentiles join_rounds;
  for (const auto latency : latencies) join_rounds.add(latency);
  out.note("join_p50_rounds", static_cast<double>(join_rounds.p50()),
           "rounds");
  out.note("join_p99_rounds", static_cast<double>(join_rounds.p99()),
           "rounds");
  out.note("join_samples", static_cast<double>(join_rounds.count()), "count");
  out.note("max_node_kbits_round", max_kbits, "kbit");

  out.fingerprint["rounds"] = join(rounds);
  out.fingerprint["max_node_bits"] = join(max_bits);
  out.fingerprint["member_order"] = join(member_hashes);
  out.fingerprint["join_latencies"] = std::to_string(fnv1a(latencies)) + "/" +
                                      std::to_string(latencies.size());
  return out;
}

}  // namespace perfbench
