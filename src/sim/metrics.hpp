// Communication-work accounting. The paper measures the communication work of
// a node in a round as the total number of bits it sends and receives, and all
// its theorems bound the worst case over nodes per round; these meters record
// exactly that.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace reconfnet::sim {

/// Per-node communication counters for a single round.
struct NodeWork {
  std::uint64_t bits_sent = 0;
  std::uint64_t bits_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;

  [[nodiscard]] std::uint64_t bits_total() const {
    return bits_sent + bits_received;
  }
};

/// Aggregated view of one finished round.
struct RoundWork {
  Round round = 0;
  std::uint64_t max_node_bits = 0;    ///< max over nodes of bits sent+received
  std::uint64_t total_bits = 0;       ///< sum over nodes
  std::uint64_t sent_messages = 0;    ///< messages handed to the bus
  std::uint64_t total_messages = 0;   ///< messages delivered
  std::uint64_t dropped_messages = 0; ///< lost to the blocking rule
  // Fault-injection accounting (src/fault/, DESIGN.md §10). Injected losses
  // are counted separately from blocking-rule drops so the audit layer can
  // tell adversarial silence from environmental faults; all four stay zero
  // when no DeliveryHook is attached.
  std::uint64_t injected_drops = 0;      ///< dropped by the fault hook
  std::uint64_t duplicated_messages = 0; ///< extra copies the hook created
  std::uint64_t deferred_messages = 0;   ///< copies parked in the delay queue
  std::uint64_t released_messages = 0;   ///< delayed copies leaving the queue

  /// Bus conservation (Section 1.1, extended for fault injection): every
  /// message entering a round boundary — sent this round, duplicated by the
  /// hook, or released from the delay queue — is delivered, dropped by the
  /// blocking rule, dropped by the hook, or deferred; never two of those and
  /// never silently created. With the fault counters at zero this reduces to
  /// the paper's delivered + dropped == sent.
  [[nodiscard]] bool conserved() const {
    return total_messages + dropped_messages + injected_drops +
               deferred_messages ==
           sent_messages + duplicated_messages + released_messages;
  }
};

/// Collects per-node work within the current round and a per-round history.
/// Protocol drivers call note_sent/note_received during a round and
/// finish_round() at the round boundary.
class WorkMeter {
 public:
  void note_sent(NodeId node, std::uint64_t bits);
  void note_received(NodeId node, std::uint64_t bits);
  void note_dropped();

  // Fault-injection events (see RoundWork). note_fate charges the fate a
  // DeliveryHook gave one message to `to`: one entry per copy, the first
  // the message and the rest duplicates, each received now (0) or parked in
  // the delay queue (k > 0); no entry means the hook dropped it.
  // note_released counts the delayed copies leaving the queue at their
  // delivery round: `landing` are delivered, `dropped` find their receiver
  // blocked.
  void note_fate(NodeId to, std::uint64_t bits,
                 std::span<const Round> deliveries);
  void note_released(std::uint64_t landing, std::uint64_t dropped);

  /// Closes the current round: aggregates counters into the history and
  /// resets the per-node state.
  void finish_round(Round round);

  [[nodiscard]] const std::vector<RoundWork>& history() const {
    return history_;
  }

  /// Maximum over all finished rounds of the per-node per-round bit count.
  [[nodiscard]] std::uint64_t max_node_bits_any_round() const;

  /// Total bits over all finished rounds.
  [[nodiscard]] std::uint64_t total_bits() const;

  /// Number of finished rounds.
  [[nodiscard]] std::size_t rounds() const { return history_.size(); }

  void clear();

 private:
  /// Grows `current_` to cover `node` and returns its slot, recording first
  /// touches of the round in `touched_`.
  NodeWork& slot(NodeId node);

  /// Index-addressed by NodeId (dense, monotonic — sim/types.hpp). Entries
  /// are reset, not erased, at finish_round(), so the table and the
  /// `touched_` scratch recycle their storage across rounds.
  std::vector<NodeWork> current_;
  /// Nodes with nonzero counters this round, in first-touch order.
  std::vector<NodeId> touched_;
  std::uint64_t current_dropped_ = 0;
  std::uint64_t current_injected_drops_ = 0;
  std::uint64_t current_duplicated_ = 0;
  std::uint64_t current_deferred_ = 0;
  std::uint64_t current_released_ = 0;
  std::vector<RoundWork> history_;
};

}  // namespace reconfnet::sim
