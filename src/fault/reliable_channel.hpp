// Reliable delivery on top of the lossy bus (DESIGN.md §10): the ack/retry
// core of fault/retry.hpp wrapped around one Bus, with ticks counted in bus
// rounds. The paper's model never loses messages, so the bare protocols have
// no retransmission story; the overlays opt into this wrapper at their Bus
// edges when running under a FaultPlan.
//
// Wire format (accounted against both endpoints' communication work):
//   data: 1 kind bit + kReliableSeqBits sequence number + the payload bits
//   ack:  1 kind bit + kReliableSeqBits sequence number
// Sequence numbers are unique per channel instance, so dedup needs no
// per-sender state. Every data receipt is (re-)acked — the previous ack may
// itself have been lost — and duplicates are suppressed before the caller
// sees them (at-most-once; audited by audit::check_at_most_once). A send is
// retried until acked: a channel serves one phase, and the caller's settle
// budget bounds how long it runs.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "fault/plan.hpp"
#include "fault/retry.hpp"
#include "sim/bus.hpp"
#include "sim/types.hpp"

namespace reconfnet::fault {

// Retry/ack constants, pinned by tools/protocheck/protocol.toml.
inline constexpr std::uint64_t kReliableSeqBits = 32;
inline constexpr std::uint64_t kReliableHeaderBits = 1 + kReliableSeqBits;
inline constexpr std::uint64_t kReliableAckBits = 1 + kReliableSeqBits;
inline constexpr sim::Round kReliableInitialTimeoutRounds = 2;
inline constexpr sim::Round kReliableBackoffCapRounds = 16;

/// Ack/retry wrapper around one Bus. The caller drives the same synchronous
/// skeleton as a bare bus — receive(v) for every node, compute, send(...),
/// step() — and the channel retransmits unacked messages underneath.
template <typename Payload>
class ReliableChannel {
 public:
  /// On-the-wire message: a data copy or an ack for one sequence number.
  struct ReliableMsg {
    bool is_ack = false;
    std::uint32_t seq = 0;
    Payload payload{};
  };

  struct Counters {
    std::uint64_t data_sent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t duplicates_suppressed = 0;
  };

 private:
  /// One in-flight (sent, not yet acked) message.
  struct Pending {
    sim::NodeId from = sim::kNoNode;
    sim::NodeId to = sim::kNoNode;
    Payload payload{};
    std::uint64_t bits = 0;  ///< full wire size, header included
  };

  // State precedes the methods: the protocol-conformance checker
  // (tools/protocheck) attributes send/inbox/step sites to the nearest
  // preceding Bus binding.
  sim::Bus<ReliableMsg> bus_;
  RetrySender<Pending> sender_{kReliableInitialTimeoutRounds,
                               kReliableBackoffCapRounds};
  DedupWindow dedup_;
  std::vector<audit::DeliveryRecord> delivery_log_;
  Counters counters_;

 public:
  explicit ReliableChannel(sim::WorkMeter* meter = nullptr,
                           sim::DeliveryHook* fault_hook = nullptr)
      : bus_(meter) {
    bus_.set_fault_hook(fault_hook);
  }

  /// Queues one payload for reliable delivery; its first transmission goes
  /// out at the next step(), in the current bus round. `payload_bits` is the
  /// bare payload's wire size; the channel adds its header on top.
  void send(sim::NodeId from, sim::NodeId to, Payload payload,
            std::uint64_t payload_bits) {
    sender_.add({from, to, std::move(payload),
                 payload_bits + kReliableHeaderBits},
                bus_.round());
    ++counters_.data_sent;
  }

  /// Drains `node`'s inbox: consumes acks, acks every data receipt, dedups,
  /// and returns the newly accepted payloads in arrival order.
  std::vector<sim::Envelope<Payload>> receive(sim::NodeId node) {
    std::vector<sim::Envelope<Payload>> fresh;
    for (const auto& envelope : bus_.inbox(node)) {
      const ReliableMsg& wire = envelope.payload;
      if (wire.is_ack) {
        sender_.ack(wire.seq);
        continue;
      }
      // Always ack, even duplicates: the previous ack may have been lost.
      ReliableMsg ack;
      ack.is_ack = true;
      ack.seq = wire.seq;
      bus_.send(node, envelope.from, ack, kReliableAckBits);
      ++counters_.acks_sent;
      if (!dedup_.accept(wire.seq)) {
        ++counters_.duplicates_suppressed;
        continue;
      }
      ++counters_.delivered;
      delivery_log_.push_back({node, envelope.from, wire.seq});
      fresh.push_back({envelope.from, node, wire.payload});
    }
    return fresh;
  }

  /// Advances the round boundary: (re)transmits every send whose timer
  /// expired, in sequence order, then steps the underlying bus.
  void step(const sim::BlockedSet& blocked_sending,
            const sim::BlockedSet& blocked_delivery) {
    sender_.for_due(
        bus_.round(),
        [&](std::uint32_t seq, const Pending& entry, int sent) {
          if (sent > 0) ++counters_.retransmissions;
          bus_.send(entry.from, entry.to, ReliableMsg{false, seq, entry.payload},
                    entry.bits);
        },
        [](std::uint32_t, const Pending&, int) {});  // no budget: never called
    if (audit::enabled()) {
      audit::enforce(audit::check_at_most_once(delivery_log_));
    }
    bus_.step(blocked_sending, blocked_delivery);
  }

  /// Convenience for protocols that run without a DoS adversary.
  void step() {
    static const sim::BlockedSet kNone;
    step(kNone, kNone);
  }

  /// In-flight messages still awaiting an ack.
  [[nodiscard]] std::size_t pending_count() const { return sender_.size(); }
  /// Messages queued on the underlying bus for the current round.
  [[nodiscard]] std::size_t queued() const { return bus_.pending(); }
  [[nodiscard]] sim::Round round() const { return bus_.round(); }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  /// Accepted deliveries in order, for audit::check_at_most_once.
  [[nodiscard]] const std::vector<audit::DeliveryRecord>& delivery_log()
      const {
    return delivery_log_;
  }
};

}  // namespace reconfnet::fault
