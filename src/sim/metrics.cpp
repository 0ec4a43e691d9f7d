#include "sim/metrics.hpp"

#include <algorithm>

namespace reconfnet::sim {

NodeWork& WorkMeter::slot(NodeId node) {
  const auto index = static_cast<std::size_t>(node);
  if (index >= current_.size()) current_.resize(index + 1);
  NodeWork& work = current_[index];
  // Every note_* call increments a message counter, so all-zero counters
  // mean this is the node's first touch of the round.
  if (work.messages_sent == 0 && work.messages_received == 0) {
    touched_.push_back(node);
  }
  return work;
}

void WorkMeter::note_sent(NodeId node, std::uint64_t bits) {
  NodeWork& work = slot(node);
  work.bits_sent += bits;
  ++work.messages_sent;
}

void WorkMeter::note_received(NodeId node, std::uint64_t bits) {
  NodeWork& work = slot(node);
  work.bits_received += bits;
  ++work.messages_received;
}

void WorkMeter::note_dropped() { ++current_dropped_; }

void WorkMeter::note_fate(NodeId to, std::uint64_t bits,
                          std::span<const Round> deliveries) {
  if (deliveries.empty()) {
    ++current_injected_drops_;
    return;
  }
  current_duplicated_ += deliveries.size() - 1;
  for (const Round delay : deliveries) {
    if (delay > 0) {
      ++current_deferred_;
    } else {
      note_received(to, bits);
    }
  }
}

void WorkMeter::note_released(std::uint64_t landing, std::uint64_t dropped) {
  current_released_ += landing + dropped;
  current_dropped_ += dropped;
}

void WorkMeter::finish_round(Round round) {
  RoundWork agg;
  agg.round = round;
  agg.dropped_messages = current_dropped_;
  agg.injected_drops = current_injected_drops_;
  agg.duplicated_messages = current_duplicated_;
  agg.deferred_messages = current_deferred_;
  agg.released_messages = current_released_;
  // Aggregation is commutative (max and sums), so first-touch order is as
  // good as any; resetting entries instead of erasing them keeps the table's
  // storage across rounds.
  for (const NodeId node : touched_) {
    NodeWork& work = current_[static_cast<std::size_t>(node)];
    agg.max_node_bits = std::max(agg.max_node_bits, work.bits_total());
    agg.total_bits += work.bits_total();
    agg.sent_messages += work.messages_sent;
    agg.total_messages += work.messages_received;
    work = NodeWork{};
  }
  history_.push_back(agg);
  touched_.clear();
  current_dropped_ = 0;
  current_injected_drops_ = 0;
  current_duplicated_ = 0;
  current_deferred_ = 0;
  current_released_ = 0;
}

std::uint64_t WorkMeter::max_node_bits_any_round() const {
  std::uint64_t best = 0;
  for (const auto& round_work : history_) {
    best = std::max(best, round_work.max_node_bits);
  }
  return best;
}

std::uint64_t WorkMeter::total_bits() const {
  std::uint64_t total = 0;
  for (const auto& round_work : history_) total += round_work.total_bits;
  return total;
}

void WorkMeter::clear() {
  current_.clear();
  touched_.clear();
  current_dropped_ = 0;
  current_injected_drops_ = 0;
  current_duplicated_ = 0;
  current_deferred_ = 0;
  current_released_ = 0;
  history_.clear();
}

}  // namespace reconfnet::sim
