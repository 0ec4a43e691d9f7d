#include "workload/adapters.hpp"

#include <algorithm>
#include <span>

namespace reconfnet::workload {

namespace {

apps::KaryGroupedOverlay::Config kary_config(std::size_t size, int arity,
                                             double group_c,
                                             bool snapshot_edges,
                                             std::uint64_t seed) {
  apps::KaryGroupedOverlay::Config config;
  config.size = size;
  config.arity = arity;
  config.group_c = group_c;
  config.seed = seed;
  config.snapshot_edges = snapshot_edges;
  return config;
}

}  // namespace

// --- DhtAdapter -------------------------------------------------------------

DhtAdapter::DhtAdapter(const DhtAdapterConfig& config)
    : config_(config),
      overlay_(kary_config(config.size, config.arity, config.group_c,
                           config.snapshot_edges, config.seed)),
      store_(&overlay_),
      epoch_adversary_(support::Rng(config.seed ^ 0xD05ADD0ULL)) {
  for (std::uint64_t key = 0; key < config_.prefill_keys; ++key) {
    store_.deposit(key, prefill_value(key));
  }
}

std::uint64_t DhtAdapter::prefill_value(std::uint64_t key) {
  return support::splitmix64(key) | 1;  // nonzero, key-determined
}

std::size_t DhtAdapter::group_count() const { return overlay_.cube().size(); }

std::size_t DhtAdapter::node_count() const { return overlay_.size(); }

std::size_t DhtAdapter::pipeline_depth() const {
  // At most `dimension` digit-fixing hops, one serve round, one slack round.
  return static_cast<std::size_t>(overlay_.cube().dimension()) + 2;
}

std::uint64_t DhtAdapter::home_group(const Op& op) const {
  return store_.home_supernode(op.key);
}

ServeOutcome DhtAdapter::serve(const Op& op, std::uint64_t entry_group,
                               std::span<const sim::BlockedSet> blocked,
                               support::Rng& rng) {
  (void)rng;  // the route is deterministic given the entry group
  const apps::RobustStore::Request request{op.is_write, op.key, op.value};
  const auto result = store_.serve_one(request, entry_group, blocked);
  ServeOutcome outcome;
  outcome.ok = result.ok;
  outcome.found = result.found;
  outcome.value = result.value;
  outcome.rounds = result.rounds;
  return outcome;
}

EpochOutcome DhtAdapter::run_epoch(support::Rng& rng) {
  (void)rng;  // the overlay's own rng drives the epoch
  const auto report = store_.reconfigure(epoch_attack_);
  return EpochOutcome{report.success, report.rounds};
}

void DhtAdapter::set_fault_hook(sim::DeliveryHook* hook) {
  overlay_.set_fault_hook(hook);
}

bool DhtAdapter::peek(std::uint64_t key, std::uint64_t& value) {
  const auto record = store_.peek(key);
  if (!record.has_value()) return false;
  value = *record;
  return true;
}

// --- PubSubAdapter ----------------------------------------------------------

PubSubAdapter::PubSubAdapter(const PubSubAdapterConfig& config)
    : config_(config),
      overlay_(kary_config(config.size, config.arity, config.group_c,
                           config.snapshot_edges, config.seed)),
      store_(&overlay_),
      pubsub_(&store_),
      cursors_(config.topics, 0),
      epoch_adversary_(support::Rng(config.seed ^ 0xD05ADD0ULL)) {}

std::size_t PubSubAdapter::group_count() const {
  return overlay_.cube().size();
}

std::size_t PubSubAdapter::node_count() const { return overlay_.size(); }

std::size_t PubSubAdapter::pipeline_depth() const {
  // Publish = counter read + entry store + counter bump, each a full route.
  return 3 * (static_cast<std::size_t>(overlay_.cube().dimension()) + 2);
}

std::uint64_t PubSubAdapter::home_group(const Op& op) const {
  const auto topic = op.key % config_.topics;
  return store_.home_supernode(apps::PubSub::counter_key(topic));
}

ServeOutcome PubSubAdapter::serve(const Op& op, std::uint64_t entry_group,
                                  std::span<const sim::BlockedSet> blocked,
                                  support::Rng& rng) {
  (void)entry_group;  // pub-sub draws its own entries per store round-trip
  const auto topic = op.key % config_.topics;
  ServeOutcome outcome;
  if (op.is_write) {
    const apps::PubSub::Payload payloads[] = {op.value};
    const auto report = pubsub_.publish(topic, payloads, blocked, rng);
    outcome.ok = report.published == 1;
    outcome.rounds = std::max<sim::Round>(1, report.rounds);
    return outcome;
  }
  auto fetch = pubsub_.fetch_since(topic, cursors_[topic], blocked, rng);
  outcome.ok = fetch.complete;
  outcome.rounds = std::max<sim::Round>(1, fetch.rounds);
  if (fetch.complete) {
    cursors_[topic] = fetch.latest;
    if (!fetch.payloads.empty()) {
      outcome.found = true;
      outcome.value = fetch.payloads.back();
    }
  }
  return outcome;
}

EpochOutcome PubSubAdapter::run_epoch(support::Rng& rng) {
  (void)rng;
  const auto report = store_.reconfigure(epoch_attack_);
  return EpochOutcome{report.success, report.rounds};
}

void PubSubAdapter::set_fault_hook(sim::DeliveryHook* hook) {
  overlay_.set_fault_hook(hook);
}

// --- AnonymAdapter ----------------------------------------------------------

AnonymAdapter::AnonymAdapter(const AnonymAdapterConfig& config)
    : config_(config),
      overlay_([&] {
        dos::DosOverlay::Config overlay;
        overlay.size = config.size;
        overlay.group_c = config.group_c;
        overlay.seed = config.seed;
        return overlay;
      }()),
      epoch_adversary_(support::Rng(config.seed ^ 0xD05ADD0ULL)) {}

std::size_t AnonymAdapter::group_count() const {
  return static_cast<std::size_t>(overlay_.groups().supernodes());
}

std::size_t AnonymAdapter::node_count() const { return overlay_.size(); }

std::size_t AnonymAdapter::pipeline_depth() const {
  return static_cast<std::size_t>(apps::kAnonymizerPipelineRounds) + 1;
}

std::uint64_t AnonymAdapter::home_group(const Op& op) const {
  // The destination user pins the exit group's load for capacity accounting.
  std::uint64_t state = op.key % config_.users;
  return support::splitmix64(state) % overlay_.groups().supernodes();
}

ServeOutcome AnonymAdapter::serve(const Op& op, std::uint64_t entry_group,
                                  std::span<const sim::BlockedSet> blocked,
                                  support::Rng& rng) {
  (void)entry_group;  // the anonymizer picks its own entry server
  const apps::AnonymousRequest request{op.value % config_.users,
                                       op.key % config_.users};
  const auto report = apps::route_anonymous_batch(
      overlay_.groups(), std::span<const apps::AnonymousRequest>(&request, 1),
      blocked, rng);
  ServeOutcome outcome;
  outcome.ok = report.delivered == 1 && report.replied == 1;
  outcome.rounds = apps::kAnonymizerPipelineRounds;
  return outcome;
}

EpochOutcome AnonymAdapter::run_epoch(support::Rng& rng) {
  (void)rng;
  const auto report = overlay_.run_epoch(epoch_attack_);
  return EpochOutcome{report.success, report.rounds};
}

}  // namespace reconfnet::workload
