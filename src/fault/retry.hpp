// The ack/retry core of reliable delivery (DESIGN.md §10, §15): one sender
// and one receiver state machine, shared by the simulator's ReliableChannel
// (fault/reliable_channel.hpp) and the live UDP transport's ReliableLink
// (transport/reliable_link.hpp).
//
// The core never reads a clock. Time is an opaque tick passed in by the
// wrapper: a bus round in the channel, a microsecond in the link.
//
//   * RetrySender keeps the pending sends by sequence number and
//     retransmits each one on a capped binary backoff: the gap after its
//     k-th transmission is min(initial * 2^k, cap) ticks. A send leaves when
//     it is acked, dropped by the caller, or (under a transmission budget)
//     abandoned.
//   * DedupWindow remembers which sequence numbers were delivered: a floor
//     below which everything was, plus the delivered numbers above it.
//
// Sequence numbers start at 1, so a fresh floor of 0 means "nothing yet",
// and never wrap: both wire formats carry them in 32 bits, and add() throws
// rather than reuse one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

namespace reconfnet::fault {

/// Sender half. `Item` is whatever the wrapper (re)transmits.
template <typename Item>
class RetrySender {
 public:
  /// `budget` caps the transmissions of one send; 0 retries until acked.
  RetrySender(std::int64_t initial_gap, std::int64_t gap_cap, int budget = 0)
      : initial_gap_(initial_gap), gap_cap_(gap_cap), budget_(budget) {}

  /// Queues `item` under the next sequence number; its first transmission
  /// is due at tick `due`. Returns the number.
  std::uint32_t add(Item item, std::int64_t due) {
    if (next_seq_ == 0) {
      throw std::overflow_error("reliable delivery: 32-bit sequence space "
                                "exhausted");
    }
    const std::uint32_t seq = next_seq_++;
    pending_.emplace(seq, Entry{std::move(item), due, initial_gap_, 0});
    return seq;
  }

  /// Visits every send due at tick `now` in ascending sequence order. A
  /// send still within its budget goes to transmit(seq, item, sent), where
  /// `sent` counts its earlier transmissions, and its timer is re-armed. A
  /// send that has used its budget goes to abandon(seq, item, sent) and
  /// leaves.
  template <typename Transmit, typename Abandon>
  void for_due(std::int64_t now, Transmit&& transmit, Abandon&& abandon) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      Entry& entry = it->second;
      if (now < entry.due) {
        ++it;
        continue;
      }
      if (budget_ > 0 && entry.sent >= budget_) {
        abandon(it->first, entry.item, entry.sent);
        it = pending_.erase(it);
        continue;
      }
      transmit(it->first, entry.item, entry.sent);
      ++entry.sent;
      entry.due = now + entry.gap;
      entry.gap = std::min(entry.gap * 2, gap_cap_);
      ++it;
    }
  }

  /// An ack for `seq` arrived. True iff it settled a pending send; acks for
  /// unknown, settled or dropped numbers change nothing.
  bool ack(std::uint32_t seq) { return pending_.erase(seq) > 0; }

  /// Removes every pending send whose item satisfies `pred`; returns how
  /// many went.
  template <typename Pred>
  std::size_t drop_if(Pred&& pred) {
    return std::erase_if(pending_,
                         [&](const auto& kv) { return pred(kv.second.item); });
  }

  /// The number the next add() hands out.
  [[nodiscard]] std::uint32_t next_seq() const { return next_seq_; }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }

 private:
  struct Entry {
    Item item;
    std::int64_t due = 0;  ///< tick of the next transmission
    std::int64_t gap = 0;  ///< ticks to wait after that transmission
    int sent = 0;          ///< transmissions so far
  };

  std::int64_t initial_gap_;
  std::int64_t gap_cap_;
  int budget_;
  std::uint32_t next_seq_ = 1;
  /// Ordered, so retransmissions leave in a deterministic order.
  std::map<std::uint32_t, Entry> pending_;
};

/// Receiver half: at-most-once dedup by sequence number. In-order arrivals
/// only move the floor; the set holds just the numbers that arrived ahead
/// of a gap.
class DedupWindow {
 public:
  /// Records an arrival of `seq`. True iff it is the first.
  bool accept(std::uint32_t seq) {
    if (seq <= floor_) return false;
    if (seq == floor_ + 1) {
      ++floor_;
    } else if (!above_.insert(seq).second) {
      return false;
    }
    while (!above_.empty() && *above_.begin() == floor_ + 1) {
      above_.erase(above_.begin());
      ++floor_;
    }
    return true;
  }

  /// Forgets every delivery (the sender started a fresh sequence space).
  void reset() {
    floor_ = 0;
    above_.clear();
  }

  /// Every number in [1, floor()] was delivered.
  [[nodiscard]] std::uint32_t floor() const { return floor_; }

 private:
  std::uint32_t floor_ = 0;
  std::set<std::uint32_t> above_;
};

}  // namespace reconfnet::fault
