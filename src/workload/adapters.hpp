// AppAdapter implementations binding the workload driver to the three
// Section 7 applications (DESIGN.md §12):
//   DhtAdapter    — RoBuSt-lite reads/writes on the k-ary grouped hypercube
//                   (Section 7.2); the only adapter with a peek(), so hot-key
//                   replication is available here.
//   PubSubAdapter — publish / fetch-since on the robust pub-sub (Section
//                   7.3); each adapter keeps a per-topic subscriber cursor so
//                   fetches retrieve only new entries.
//   AnonymAdapter — user-to-user messages through the anonymizer pipeline
//                   (Section 7.1) on the binary DoS overlay.
//
// Epoch attacks: each adapter owns a RandomDos adversary seeded from its
// config and builds its epoch attack once (epoch_attack below);
// epoch_blocked_fraction > 0 turns it on for reconfiguration epochs (the
// driver's blocked_fraction covers serving rounds separately).
#pragma once

#include <cstdint>
#include <vector>

#include "adversary/dos.hpp"
#include "apps/anonym/anonymizer.hpp"
#include "apps/dht/kary_overlay.hpp"
#include "apps/dht/robust_store.hpp"
#include "apps/pubsub/pubsub.hpp"
#include "dos/attack.hpp"
#include "dos/overlay.hpp"
#include "workload/driver.hpp"

namespace reconfnet::workload {

/// An adapter's epoch attack: its adversary at the configured fraction and
/// lateness, or no attack when the fraction is not positive.
template <class Config>
dos::Attack epoch_attack(const Config& config,
                         adversary::DosAdversary* adversary) {
  if (!(config.epoch_blocked_fraction > 0.0)) return {};
  return {adversary, config.epoch_lateness, config.epoch_blocked_fraction};
}

struct DhtAdapterConfig {
  std::size_t size = 1024;
  int arity = 4;
  double group_c = 2.0;
  /// Keys [0, prefill_keys) are deposited up front so reads hit.
  std::uint64_t prefill_keys = 0;
  /// Epoch-time DoS: fraction blocked by the adapter's RandomDos (0 = none).
  double epoch_blocked_fraction = 0.0;
  int epoch_lateness = 2;
  /// See DosOverlay::Config::snapshot_edges; turn off at large n.
  bool snapshot_edges = true;
  std::uint64_t seed = 1;
};

class DhtAdapter final : public AppAdapter {
 public:
  explicit DhtAdapter(const DhtAdapterConfig& config);

  [[nodiscard]] std::size_t group_count() const override;
  [[nodiscard]] std::size_t node_count() const override;
  [[nodiscard]] std::size_t pipeline_depth() const override;
  [[nodiscard]] std::uint64_t home_group(const Op& op) const override;
  ServeOutcome serve(const Op& op, std::uint64_t entry_group,
                     std::span<const sim::BlockedSet> blocked,
                     support::Rng& rng) override;
  EpochOutcome run_epoch(support::Rng& rng) override;
  void set_fault_hook(sim::DeliveryHook* hook) override;
  bool peek(std::uint64_t key, std::uint64_t& value) override;

  /// The value prefilled under `key` (tests check read correctness).
  [[nodiscard]] static std::uint64_t prefill_value(std::uint64_t key);

  [[nodiscard]] const apps::RobustStore& store() const { return store_; }

 private:
  DhtAdapterConfig config_;
  apps::KaryGroupedOverlay overlay_;
  apps::RobustStore store_;
  adversary::RandomDos epoch_adversary_;
  dos::Attack epoch_attack_ = epoch_attack(config_, &epoch_adversary_);
};

struct PubSubAdapterConfig {
  std::size_t size = 1024;
  int arity = 4;
  double group_c = 2.0;
  /// Topic space; workload keys map onto it modulo `topics`.
  std::uint64_t topics = 64;
  double epoch_blocked_fraction = 0.0;
  int epoch_lateness = 2;
  bool snapshot_edges = true;
  std::uint64_t seed = 2;
};

class PubSubAdapter final : public AppAdapter {
 public:
  explicit PubSubAdapter(const PubSubAdapterConfig& config);

  [[nodiscard]] std::size_t group_count() const override;
  [[nodiscard]] std::size_t node_count() const override;
  [[nodiscard]] std::size_t pipeline_depth() const override;
  [[nodiscard]] std::uint64_t home_group(const Op& op) const override;
  /// Writes publish op.value under topic (op.key mod topics); reads fetch
  /// everything since this adapter's cursor and advance it on success.
  ServeOutcome serve(const Op& op, std::uint64_t entry_group,
                     std::span<const sim::BlockedSet> blocked,
                     support::Rng& rng) override;
  EpochOutcome run_epoch(support::Rng& rng) override;
  void set_fault_hook(sim::DeliveryHook* hook) override;

 private:
  PubSubAdapterConfig config_;
  apps::KaryGroupedOverlay overlay_;
  apps::RobustStore store_;
  apps::PubSub pubsub_;
  std::vector<std::uint64_t> cursors_;  ///< per-topic subscriber position
  adversary::RandomDos epoch_adversary_;
  dos::Attack epoch_attack_ = epoch_attack(config_, &epoch_adversary_);
};

struct AnonymAdapterConfig {
  std::size_t size = 1024;
  double group_c = 1.0;
  /// User id space; workload keys/values map onto it modulo `users`.
  std::uint64_t users = 4096;
  double epoch_blocked_fraction = 0.0;
  int epoch_lateness = 2;
  std::uint64_t seed = 3;
};

class AnonymAdapter final : public AppAdapter {
 public:
  explicit AnonymAdapter(const AnonymAdapterConfig& config);

  [[nodiscard]] std::size_t group_count() const override;
  [[nodiscard]] std::size_t node_count() const override;
  [[nodiscard]] std::size_t pipeline_depth() const override;
  [[nodiscard]] std::uint64_t home_group(const Op& op) const override;
  /// Every op (read or write alike) is one user-to-user message: from user
  /// (op.value mod users) to user (op.key mod users); ok = delivered and
  /// replied.
  ServeOutcome serve(const Op& op, std::uint64_t entry_group,
                     std::span<const sim::BlockedSet> blocked,
                     support::Rng& rng) override;
  /// Keeps the default set_fault_hook: the driver's faults reach only the
  /// serving legs, and the overlay's epoch exchange stays lossless.
  EpochOutcome run_epoch(support::Rng& rng) override;

 private:
  AnonymAdapterConfig config_;
  dos::DosOverlay overlay_;
  adversary::RandomDos epoch_adversary_;
  dos::Attack epoch_attack_ = epoch_attack(config_, &epoch_adversary_);
};

}  // namespace reconfnet::workload
