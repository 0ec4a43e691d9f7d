// Synchronous message bus implementing the paper's communication model
// (Section 1.1) including the DoS blocking rule (Section 1.1, "Adversarial
// DoS-attacks"): a message sent from v to w in round i is received iff
//   - v is non-blocked in round i, and
//   - w is non-blocked in rounds i and i+1.
//
// The bus is the delivery core (sim/delivery.hpp) on one node range plus
// that rule and the communication-work meter: every simulated protocol
// except the samplers' exchange sends through it. An optional DeliveryHook
// (the fault-injection layer, src/fault/, DESIGN.md §10) decides the fate of
// every message that survives the blocking rule — drop, deliver now, deliver
// k rounds late, or duplicate — and may permute each inbox. With no hook
// attached every message lands in the next round, in send order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "sim/blocked.hpp"
#include "sim/delivery.hpp"
#include "sim/metrics.hpp"
#include "sim/types.hpp"

namespace reconfnet::sim {

/// A message in flight.
template <typename Msg>
struct Envelope {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  Msg payload{};
};

/// Synchronous message bus for one message type. A protocol round proceeds:
///   1. read inbox(v) for every node v (messages delivered at this round),
///   2. compute,
///   3. send(from, to, msg, bits) for each outgoing message,
///   4. step(blocked_now, blocked_next) to advance the round boundary.
///
/// step() applies the paper's blocking rule: messages from blocked senders or
/// to receivers blocked in the sending round are dropped immediately; messages
/// to receivers blocked in the delivery round are dropped at delivery. A
/// delayed copy re-checks the receiver side of the rule in its actual
/// delivery round. Inboxes are addressed by NodeId (dense, monotonic —
/// sim/types.hpp), so a round costs time linear in the highest id sent to.
template <typename Msg>
class Bus {
 public:
  explicit Bus(WorkMeter* meter = nullptr) : meter_(meter) {}

  /// Attaches (or detaches, with nullptr) the fault-injection hook. The hook
  /// must outlive the bus.
  void set_fault_hook(DeliveryHook* hook) { core_.set_hook(hook); }

  /// Queues a message from `from` to `to` in the current round. `bits` is the
  /// wire size charged to both endpoints' communication work.
  void send(NodeId from, NodeId to, Msg payload, std::uint64_t bits) {
    if (meter_ != nullptr) meter_->note_sent(from, bits);
    nodes_ = std::max(nodes_, static_cast<std::size_t>(to) + 1);
    outbox_.push_back({Envelope<Msg>{from, to, std::move(payload)}, bits});
  }

  /// Advances the round boundary. `blocked_sending` is the adversary's
  /// blocked set for the round that just ended; `blocked_delivery` is the
  /// blocked set for the round about to begin.
  void step(const BlockedSet& blocked_sending,
            const BlockedSet& blocked_delivery) {
    static const BlockedSet kNone;
    const Released released = core_.open(nodes_, blocked_delivery);
    if (meter_ != nullptr) {
      meter_->note_released(released.landing, released.dropped);
    }
    // Count pass: the blocking rule, then the hook's fate. The outbox keeps
    // the messages that passed the rule, in send order, for the put pass.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < outbox_.size(); ++i) {
      Sent& sent = outbox_[i];
      const Envelope<Msg>& envelope = sent.envelope;
      if (blocked_sending.contains(envelope.from) ||
          blocked_sending.contains(envelope.to) ||
          blocked_delivery.contains(envelope.to)) {
        if (meter_ != nullptr) meter_->note_dropped();
        continue;
      }
      if (audit::enabled()) {
        audit::enforce(audit::check_blocking_rule(
            envelope.from, envelope.to, blocked_sending, blocked_delivery));
      }
      const auto fate = core_.count(0, envelope.from, envelope.to, sent);
      if (meter_ != nullptr) meter_->note_fate(envelope.to, sent.bits, fate);
      if (kept != i) outbox_[kept] = std::move(sent);
      ++kept;
    }
    outbox_.erase(outbox_.begin() + static_cast<std::ptrdiff_t>(kept),
                  outbox_.end());
    // The sender's side of the rule was checked in a released copy's sending
    // round; open() dropped it if its receiver is blocked now.
    core_.seal(inboxes_, [&](Sent&& late) {
      if (audit::enabled()) {
        audit::enforce(audit::check_blocking_rule(
            late.envelope.from, late.envelope.to, kNone, blocked_delivery));
      }
      if (meter_ != nullptr) meter_->note_received(late.envelope.to, late.bits);
      return std::move(late.envelope);
    });
    for (Sent& sent : outbox_) {
      core_.put(0, inboxes_, sent.envelope.to, std::move(sent.envelope));
    }
    outbox_.clear();
    const Round round = core_.round();
    core_.close(inboxes_);
    if (meter_ != nullptr) meter_->finish_round(round);
  }

  /// Convenience for protocols that run without a DoS adversary.
  void step() {
    static const BlockedSet kNone;
    step(kNone, kNone);
  }

  /// Messages delivered to `node` at the start of the current round.
  [[nodiscard]] std::span<const Envelope<Msg>> inbox(NodeId node) const {
    return inboxes_.of(static_cast<std::size_t>(node));
  }

  /// Index of the current round (number of step() calls so far).
  [[nodiscard]] Round round() const { return core_.round(); }

  /// Number of messages queued in the current round so far.
  [[nodiscard]] std::size_t pending() const { return outbox_.size(); }

  /// Number of hook-delayed copies still waiting for their delivery round.
  [[nodiscard]] std::size_t delayed_pending() const {
    return core_.delayed_pending();
  }

 private:
  /// A message with its wire size: an outbox entry, and what a delayed copy
  /// carries until it lands.
  struct Sent {
    Envelope<Msg> envelope;
    std::uint64_t bits = 0;
  };

  std::vector<Sent> outbox_;
  /// One past the highest id sent to so far: the round's destinations.
  std::size_t nodes_ = 0;
  DeliveryCore<Sent> core_{1, nullptr};
  Inboxes<Envelope<Msg>> inboxes_;
  WorkMeter* meter_;
};

}  // namespace reconfnet::sim
