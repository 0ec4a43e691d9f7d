// live-inproc-512: the Section 5 per-node protocol of 512 nodes (d = 6,
// groups of about 8) through the wire codec and the in-process hub, with
// an empty fault plan. The `transport` layer does the work here; it steps
// the same sim::Bus as churn-4k, but with heap-allocated byte frames.
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "audit/invariants.hpp"
#include "dos/group_table.hpp"
#include "measure.hpp"
#include "sim/metrics.hpp"
#include "support/stats.hpp"
#include "transport/inproc.hpp"
#include "transport/node_protocol.hpp"

namespace perfbench {

namespace {

using namespace reconfnet;

constexpr int kNodes = 512;
constexpr int kDimension = 6;
/// Epochs of one deployment run (one timed unit).
constexpr int kEpochs = 1;
/// Deployment constructions timed for the setup_s median before each
/// deployment run, so that the median samples the host over the whole run
/// (see churn.cpp).
constexpr int kSetupsPerRun = 7;
/// Deployment runs every run makes; the deterministic metrics come from
/// these. Deployment run i uses unit_seed(seed, i): group tables differ in
/// work and peak memory by up to a third, so every run covers several.
constexpr int kMinRuns = 6;
/// Group-size envelope for audit::check_group_table. Groups average 8 =
/// 0.9 log2 n members, and uniform assignment leaves a one-member group in
/// about one epoch in five, so the check takes gamma = 0.5: every group
/// non-empty and none above 27 members.
constexpr double kGamma = 0.5;
/// Attempts per epoch before a node gives up on it. About one table in
/// twelve falls back once even with no faults, so with the protocol's
/// default of 3 about one table in 1700 fails its epoch outright, which
/// would fail about one benchmark run in 170 (ten tables each); with 6 that
/// takes about 3 million tables. A table that commits within 3 attempts
/// runs exactly as with the default.
constexpr int kMaxAttempts = 6;

transport::InprocDeploymentConfig deployment_config(std::uint64_t seed) {
  transport::InprocDeploymentConfig config;
  config.nodes = kNodes;
  config.dimension = kDimension;
  config.table_seed = seed;
  config.protocol.seed = seed;
  config.protocol.epochs = kEpochs;
  config.protocol.max_attempts = kMaxAttempts;
  return config;
}

/// Everything one deployment run produced that must not depend on timing
/// or tracing.
struct Outcome {
  sim::Round rounds = 0;
  std::uint64_t max_node_bits = 0;  ///< max over nodes and rounds, sent+recv
  std::uint64_t deliveries = 0;
  std::vector<std::uint64_t> bits_sent;  ///< per node
  std::uint64_t frames_sent = 0;
  std::int64_t attempts = 0;
  std::int64_t fallbacks = 0;
  std::int64_t epochs_failed = 0;
  std::int64_t resyncs = 0;
  std::uint64_t stale_frames = 0;
  std::uint64_t table_hash = 0;

  bool operator==(const Outcome&) const = default;
};

std::uint64_t table_hash(const dos::GroupTable& table) {
  std::vector<std::uint64_t> flat;
  for (std::uint64_t x = 0; x < table.supernodes(); ++x) {
    flat.push_back(x);
    const auto& group = table.group(x);
    flat.insert(flat.end(), group.begin(), group.end());
  }
  return fnv1a(flat);
}

/// Checks a finished run and collects its outcome. `node(i)` gives node i's
/// protocol.
template <typename NodeAt>
Outcome finish(bool all_finished, sim::Round rounds,
               const sim::WorkMeter& meter, NodeAt node) {
  check(all_finished, "a node hit the round cap");
  Outcome out;
  out.rounds = rounds;
  out.max_node_bits = meter.max_node_bits_any_round();
  for (const auto& round : meter.history()) {
    out.deliveries += round.total_messages;
  }
  const auto conservation = audit::check_bus_conservation(meter);
  check(conservation.empty(), "audit::check_bus_conservation found " +
                                  std::to_string(conservation.size()) +
                                  " violations");
  const dos::GroupTable& reference = node(0).table();
  for (int i = 0; i < kNodes; ++i) {
    const transport::NodeProtocol& protocol = node(i);
    const auto& metrics = protocol.metrics();
    check(protocol.finished() && metrics.epochs_completed == kEpochs,
          "node " + std::to_string(i) + " completed " +
              std::to_string(metrics.epochs_completed) + " of " +
              std::to_string(kEpochs) + " epochs");
    check(table_hash(protocol.table()) == table_hash(reference),
          "node " + std::to_string(i) + " ended with a different table");
    out.bits_sent.push_back(metrics.bits_sent);
    out.frames_sent += metrics.frames_sent;
    out.attempts += metrics.attempts;
    out.fallbacks += metrics.fallbacks;
    out.epochs_failed += metrics.epochs_failed;
    out.resyncs += metrics.resyncs;
    out.stale_frames += metrics.stale_frames;
  }
  const auto violations = audit::check_group_table(reference, kGamma);
  check(violations.empty(),
        "audit::check_group_table: " +
            (violations.empty() ? std::string() : violations.front().detail));
  out.table_hash = table_hash(reference);
  return out;
}

Outcome finish_untraced(transport::InprocDeployment& deployment,
                        const transport::InprocDeployment::Report& report) {
  return finish(report.all_live_finished && report.finished == kNodes,
                report.rounds, deployment.hub().meter(),
                [&](int i) -> const transport::NodeProtocol& {
                  return deployment.node(static_cast<sim::NodeId>(i));
                });
}

/// The traced deployment: steps the same public classes InprocDeployment::run
/// steps (hub, endpoints, protocols), with spans around each layer's calls.
/// With an empty fault plan no node ever crashes, so the crash handling of
/// InprocDeployment::run has nothing to do and is left out.
class TracedDeployment {
 public:
  explicit TracedDeployment(const transport::InprocDeploymentConfig& config)
      : config_(config), hub_(config.plan, config.fault_salt) {
    std::vector<sim::NodeId> ids;
    for (int i = 0; i < config.nodes; ++i) {
      ids.push_back(static_cast<sim::NodeId>(i));
    }
    support::Rng table_rng(config.table_seed);
    const auto table =
        dos::GroupTable::random(config.dimension, ids, table_rng);
    for (const sim::NodeId id : ids) {
      protocols_.push_back(std::make_unique<transport::NodeProtocol>(
          id, table, config.protocol));
      endpoints_.push_back(
          std::make_unique<transport::InprocTransport>(&hub_, id));
    }
  }

  Outcome run(Tracer& tracer) {
    std::vector<sim::Envelope<transport::Message>> inbox;
    transport::NodeProtocol::Outbox outbox;
    const std::vector<sim::NodeId> dead;
    bool all_done = false;
    sim::Round rounds = 0;
    for (sim::Round round = 0; round < config_.max_rounds && !all_done;
         ++round) {
      Tracer::Scope round_span(&tracer, "transport.round");
      all_done = true;
      for (std::size_t i = 0; i < protocols_.size(); ++i) {
        inbox.clear();
        {
          Tracer::Scope span(&tracer, "transport.codec", true);
          endpoints_[i]->poll(inbox);
        }
        outbox.clear();
        bool running = false;
        {
          Tracer::Scope span(&tracer, "transport.protocol", true);
          running = protocols_[i]->on_round(round, inbox, outbox, dead);
        }
        {
          Tracer::Scope span(&tracer, "transport.codec", true);
          for (auto& [to, msg] : outbox) endpoints_[i]->send(to, msg);
        }
        if (running) all_done = false;
      }
      {
        Tracer::Scope span(&tracer, "sim.bus", true);
        hub_.step();
      }
      rounds = round + 1;
    }
    return finish(all_done, rounds, hub_.meter(),
                  [&](int i) -> const transport::NodeProtocol& {
                    return *protocols_[static_cast<std::size_t>(i)];
                  });
  }

 private:
  transport::InprocDeploymentConfig config_;
  transport::InprocHub hub_;
  std::vector<std::unique_ptr<transport::NodeProtocol>> protocols_;
  std::vector<std::unique_ptr<transport::InprocTransport>> endpoints_;
};

}  // namespace

Report run_live(const Options& options) {
  Tracer tracer;
  std::vector<double> setup_s;
  std::vector<double> epoch_s;
  std::vector<double> unit_s;
  double setup_rss_mb = 0.0;
  double peak_mb = 0.0;  // VmHWM after the first kMinRuns runs
  std::vector<Outcome> outcomes;  // the first kMinRuns runs

  // Traced runs first time one untraced deployment run of the first unit's
  // seed: the reference for the tracing overhead and for transparency.
  double reference_s = 0.0;
  std::optional<Outcome> reference;
  if (options.trace) {
    transport::InprocDeployment deployment(
        deployment_config(unit_seed(options.seed, 0)));
    const double start = now_s();
    const auto report = deployment.run();
    reference_s = now_s() - start;
    reference = finish_untraced(deployment, report);
  }

  std::uint64_t epochs_failed = 0;
  double attempts = 0.0;
  double fallbacks = 0.0;
  double frames = 0.0;
  double bits = 0.0;
  double deliveries = 0.0;
  double resyncs = 0.0;
  double stale_frames = 0.0;
  const double start = now_s();
  int runs = 0;
  while (more_units(options, runs, kMinRuns, start)) {
    tracer.set_epoch(runs);
    const auto config = deployment_config(unit_seed(options.seed, runs));
    for (int i = 0; i < kSetupsPerRun; ++i) {
      const double setup_start = now_s();
      const transport::InprocDeployment deployment(config);
      setup_s.push_back(now_s() - setup_start);
    }
    Outcome outcome;
    if (options.trace) {
      reset_peak_rss();
      TracedDeployment deployment(config);
      setup_rss_mb = std::max(setup_rss_mb, peak_rss_mb());
      const double run_start = now_s();
      outcome = deployment.run(tracer);
      unit_s.push_back(now_s() - run_start);
    } else {
      transport::InprocDeployment deployment(config);
      const double run_start = now_s();
      const auto report = deployment.run();
      epoch_s.push_back((now_s() - run_start) / kEpochs);
      outcome = finish_untraced(deployment, report);
    }
    check(runs > 0 || !reference || *reference == outcome,
          "the traced run differs from the untraced run of the same seed");
    epochs_failed += static_cast<std::uint64_t>(outcome.epochs_failed);
    attempts += static_cast<double>(outcome.attempts);
    fallbacks += static_cast<double>(outcome.fallbacks);
    frames += static_cast<double>(outcome.frames_sent);
    for (auto node_bits : outcome.bits_sent) {
      bits += static_cast<double>(node_bits);
    }
    deliveries += static_cast<double>(outcome.deliveries);
    resyncs += static_cast<double>(outcome.resyncs);
    stale_frames += static_cast<double>(outcome.stale_frames);
    if (runs < kMinRuns) {
      outcomes.push_back(std::move(outcome));
      peak_mb = peak_rss_mb();
    }
    ++runs;
  }

  Report out;
  // One operation is one node's epoch. An attempt that falls back to the
  // previous configuration is retried (transport.fallbacks counts those);
  // the epoch fails only when its attempts run out.
  out.attempted = static_cast<std::uint64_t>(kNodes * kEpochs * runs);
  out.failed = epochs_failed;
  std::vector<double> rounds;
  double first_bits = 0.0;
  std::uint64_t max_node_bits = 0;
  for (const Outcome& outcome : outcomes) {
    rounds.push_back(static_cast<double>(outcome.rounds));
    for (auto node_bits : outcome.bits_sent) {
      first_bits += static_cast<double>(node_bits);
    }
    max_node_bits = std::max(max_node_bits, outcome.max_node_bits);
  }
  const double epochs = static_cast<double>(runs) * kEpochs;
  const double node_epochs = static_cast<double>(kNodes) * epochs;
  if (!options.trace) {
    out.add("setup_s", support::summarize(setup_s).p50, "s");
    out.add("epoch_s", lower_quartile(epoch_s), "s");
    out.add("peak_rss_mb", peak_mb, "MB");
    out.add("rounds_per_epoch", support::summarize(rounds).p50 / kEpochs,
            "rounds");
  } else {
    out.add("transport.protocol.busy_s",
            tracer.busy_s("transport.protocol") / epochs, "s");
    out.add("transport.codec.busy_s",
            tracer.busy_s("transport.codec") / epochs, "s");
    out.add("sim.bus.busy_s", tracer.busy_s("sim.bus") / epochs, "s");
    out.add("transport.frames_per_node_epoch", frames / node_epochs, "count");
    out.add("transport.bytes_per_frame", bits / 8.0 / frames, "B");
    out.add("transport.attempts", attempts / epochs, "count");
    out.add("transport.fallbacks", fallbacks / epochs, "count");
    out.add("transport.resyncs", resyncs / epochs, "count");
    out.add("transport.stale_frames", stale_frames / epochs, "count");
    out.add("sim.bus.deliveries", deliveries / epochs, "count");
    out.add("transport.setup_rss_mb", setup_rss_mb, "MB");
    out.add("trace.overhead_s", unit_s.front() - reference_s, "s");
    tracer.write(options.trace_dir + "/spans-live-inproc-512-seed" +
                 std::to_string(options.seed) + ".tsv");
  }
  const double first_node_epochs = static_cast<double>(kNodes) * kEpochs *
                                   static_cast<double>(outcomes.size());
  out.note("kbits_per_node_epoch", first_bits / first_node_epochs / 1000.0,
           "kbit");
  out.note("max_node_kbits_round", static_cast<double>(max_node_bits) / 1000.0,
           "kbit");

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& outcome = outcomes[i];
    const std::string unit = "run" + std::to_string(i) + ".";
    std::uint64_t total = 0;
    for (auto node_bits : outcome.bits_sent) total += node_bits;
    out.fingerprint[unit + "rounds"] = std::to_string(outcome.rounds);
    out.fingerprint[unit + "max_node_bits"] =
        std::to_string(outcome.max_node_bits);
    out.fingerprint[unit + "bits_sent"] =
        std::to_string(fnv1a(outcome.bits_sent)) + "/" + std::to_string(total);
    out.fingerprint[unit + "frames_sent"] = std::to_string(outcome.frames_sent);
    out.fingerprint[unit + "deliveries"] = std::to_string(outcome.deliveries);
    out.fingerprint[unit + "final_table"] = std::to_string(outcome.table_hash);
  }
  return out;
}

}  // namespace perfbench
