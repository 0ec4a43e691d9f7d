// The request/serve/accept exchange shared by Algorithms 1 and 2
// (DESIGN.md §4).
//
// Both rapid samplers run the same two-round iteration: every node sends its
// requests (Phase 2), every node answers each request it received with one
// response (Phase 3), and every node accepts the responses it received
// (Phase 4). The exchange carries these messages without sim::Bus. A round's
// messages are bucketed by destination with a stable counting sort into one
// flat buffer that keeps its capacity across rounds, so
//   - requests reach a server in ascending sender order, then in send order;
//   - responses reach a requester in ascending responder order, then in the
//     requester's own send order.
// That is the inbox order of sim::Bus, so every per-node RNG draw happens
// where it happens over the Bus and every output matches it bit for bit.
//
// An optional sim::DeliveryHook sees the traffic under the Bus's contract
// (sim/bus.hpp): on_message once per message in send order, reorder for each
// non-empty inbox in ascending node order (copies released from the delay
// queue first, then this round's copies in send order), on_step once per
// round. A copy the hook delays lands in a later round, which belongs to
// another phase: an odd delay puts it among messages of the other kind, an
// even one into a later iteration. Such a late copy is delivered and metered
// like any other, then discarded unused and counted, so a delay acts like a
// loss. Late copies therefore carry no payload through the delay queue.
//
// Communication work: all messages of one sampler cost the same number of
// bits, so a node's work in a round is its sent plus received message count
// times that cost, exactly what sim::WorkMeter records for the Bus.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/bus.hpp"
#include "sim/types.hpp"

namespace reconfnet::sampling {

/// Totals of one exchange run.
struct ExchangeStats {
  sim::Round rounds = 0;
  std::uint64_t max_node_bits_per_round = 0;
  /// Copies a fault hook delivered after their phase had ended (discarded).
  std::size_t late_copies = 0;
};

/// One round's inboxes for one message kind: slots [offsets[v], offsets[v+1])
/// are the inbox of node v. Buffers keep their capacity across rounds.
template <typename Msg>
struct Inboxes {
  std::vector<std::size_t> offsets;
  std::vector<Msg> slots;
  /// Empty, or one flag per slot marking late copies.
  std::vector<std::uint8_t> late;
  /// Permutation scratch for hook reordering.
  std::vector<Msg> scratch_slots;
  std::vector<std::uint8_t> scratch_late;

  [[nodiscard]] std::size_t begin(std::size_t v) const { return offsets[v]; }
  [[nodiscard]] std::size_t end(std::size_t v) const { return offsets[v + 1]; }
  [[nodiscard]] bool is_late(std::size_t slot) const {
    return !late.empty() && late[slot] != 0;
  }
};

/// Delivery machinery of the exchange: counts, the stable counting sort, the
/// hook and its delay queue, the round clock and the work meter. A round is
/// open(), then count(from, to) once per message in send order, seal(), then
/// put(to, msg) once per message in the same order, then close().
template <typename Request, typename Response>
class Exchange {
 public:
  Exchange(std::size_t nodes, std::uint64_t bits_per_msg,
           sim::DeliveryHook* hook)
      : nodes_(nodes), bits_(bits_per_msg), hook_(hook) {
    if (nodes > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("Exchange: more than 2^32 nodes");
    }
    counts_.assign(nodes, 0);
    sent_.assign(nodes, 0);
    cursor_.assign(nodes, 0);
    requests.offsets.assign(nodes + 1, 0);
    responses.offsets.assign(nodes + 1, 0);
  }

  Inboxes<Request> requests;
  Inboxes<Response> responses;

  /// Starts a round: copies the hook delayed to this round land first.
  void open() {
    std::fill(counts_.begin(), counts_.end(), 0);
    copies_.clear();
    next_message_ = 0;
    released_ = 0;
    for (const Delayed& copy : delayed_) {
      if (copy.due != round_) continue;
      ++counts_[copy.to];
      ++released_;
    }
  }

  /// First pass, once per message in send order: consults the hook for the
  /// message's fate and counts the copies that land this round.
  void count(std::size_t from, std::size_t to) {
    ++sent_[from];
    if (hook_ == nullptr) {
      ++counts_[to];
      return;
    }
    fate_.clear();
    hook_->on_message(from, to, round_, fate_);
    std::size_t on_time = 0;
    for (const sim::Round delay : fate_) {
      if (delay <= 0) {
        ++on_time;
      } else {
        // reconfnet-hotcheck: allow(RNH404) the delay queue keeps its
        // capacity across rounds and grows only while the hook defers
        delayed_.push_back({static_cast<std::uint32_t>(to), round_ + delay});
      }
    }
    if (on_time > std::numeric_limits<std::uint8_t>::max()) {
      throw std::length_error("Exchange: a hook asked for over 255 copies");
    }
    counts_[to] += on_time;
    copies_.push_back(static_cast<std::uint8_t>(on_time));
  }

  /// Between the passes: lays out the buckets and places the late copies
  /// released this round at the head of theirs, in delay-queue order.
  template <typename Msg>
  void seal(Inboxes<Msg>& box) {
    std::size_t total = 0;
    for (std::size_t v = 0; v < nodes_; ++v) {
      box.offsets[v] = total;
      cursor_[v] = total;
      total += counts_[v];
    }
    box.offsets[nodes_] = total;
    box.slots.resize(total);
    box.late.clear();
    if (released_ == 0) return;
    box.late.assign(total, 0);
    std::size_t kept = 0;
    for (const Delayed& copy : delayed_) {
      if (copy.due != round_) {
        delayed_[kept++] = copy;
        continue;
      }
      const std::size_t slot = cursor_[copy.to]++;
      box.slots[slot] = Msg{};
      box.late[slot] = 1;
    }
    delayed_.resize(kept);
  }

  /// Second pass, once per message in the order of count(): writes the
  /// message's on-time copies into its destination bucket.
  template <typename Msg>
  void put(Inboxes<Msg>& box, std::size_t to, const Msg& msg) {
    if (hook_ == nullptr) {
      box.slots[cursor_[to]++] = msg;
      return;
    }
    for (std::uint8_t copy = copies_[next_message_++]; copy > 0; --copy) {
      box.slots[cursor_[to]++] = msg;
    }
  }

  /// Ends the round: the hook may permute each non-empty inbox, the meter
  /// closes the round, and the hook's clock advances.
  template <typename Msg>
  void close(Inboxes<Msg>& box) {
    if (hook_ != nullptr) reorder(box);
    std::uint64_t busiest = 0;
    for (std::size_t v = 0; v < nodes_; ++v) {
      busiest = std::max<std::uint64_t>(
          busiest, sent_[v] + (box.end(v) - box.begin(v)));
      sent_[v] = 0;
    }
    max_node_bits_ = std::max(max_node_bits_, busiest * bits_);
    if (hook_ != nullptr) hook_->on_step(round_);
    ++round_;
  }

  [[nodiscard]] sim::Round round() const { return round_; }
  [[nodiscard]] std::uint64_t max_node_bits() const { return max_node_bits_; }

 private:
  /// A copy the hook deferred. It lands in a later phase and is discarded
  /// there, so only its destination and delivery round matter.
  struct Delayed {
    std::uint32_t to = 0;
    sim::Round due = 0;
  };

  template <typename Msg>
  void reorder(Inboxes<Msg>& box) {
    for (std::size_t v = 0; v < nodes_; ++v) {
      const std::size_t first = box.begin(v);
      const std::size_t size = box.end(v) - first;
      if (size == 0) continue;
      perm_.clear();
      if (!hook_->reorder(v, round_, size, perm_)) continue;
      if (perm_.size() != size) continue;
      permute(box.slots, first, box.scratch_slots);
      if (!box.late.empty()) permute(box.late, first, box.scratch_late);
    }
  }

  /// values[first + k] = old values[first + perm_[k]] for every k.
  template <typename T>
  void permute(std::vector<T>& values, std::size_t first,
               std::vector<T>& scratch) const {
    scratch.resize(perm_.size());
    for (std::size_t k = 0; k < perm_.size(); ++k) {
      scratch[k] = values[first + perm_[k]];
    }
    std::copy(scratch.begin(), scratch.end(),
              values.begin() + static_cast<std::ptrdiff_t>(first));
  }

  std::size_t nodes_;
  std::uint64_t bits_;
  sim::DeliveryHook* hook_;
  sim::Round round_ = 0;
  std::uint64_t max_node_bits_ = 0;
  std::vector<std::size_t> counts_;  ///< copies landing per node this round
  std::vector<std::size_t> sent_;    ///< messages sent per node this round
  std::vector<std::size_t> cursor_;  ///< next free slot per bucket
  /// With a hook: on-time copies per message of this round, in send order.
  std::vector<std::uint8_t> copies_;
  std::size_t next_message_ = 0;
  std::size_t released_ = 0;
  std::vector<Delayed> delayed_;
  std::vector<sim::Round> fate_;
  std::vector<std::size_t> perm_;
};

/// Runs a sampler over `nodes` nodes: Phase 1, then `iterations`
/// request/serve/accept iterations. The Sampler provides, for node v and
/// iteration i:
///   - types Request (with a `requester` member) and Response;
///   - init(v): Phase 1;
///   - make_requests(v, i): Phase 2's draws;
///   - for_each_request(v, f): calls f(to, request) per request of v in
///     send order; the exchange calls it twice per iteration;
///   - serve(v, request, i) -> Response, then end_serve(v, i) (Phase 3);
///   - accept(v, response), then end_accept(v) (Phase 4).
/// Phase 4 of iteration i and Phase 2 of iteration i+1 share a round, so a
/// node makes its next requests right after accepting, while its multiset is
/// still in cache; each node draws from its own stream, so the draws are the
/// same as phase by phase.
template <typename Sampler>
ExchangeStats run_exchange(Sampler& sampler, std::size_t nodes,
                           int iterations, std::uint64_t bits_per_msg,
                           sim::DeliveryHook* hook) {
  using Request = typename Sampler::Request;
  using Response = typename Sampler::Response;
  Exchange<Request, Response> exchange(nodes, bits_per_msg, hook);
  auto& requests = exchange.requests;
  auto& responses = exchange.responses;
  ExchangeStats stats;
  // Phase 1, and Phase 2's draws of the first iteration.
  for (std::size_t v = 0; v < nodes; ++v) {
    sampler.init(v);
    if (iterations > 0) sampler.make_requests(v, 1);
  }
  for (int i = 1; i <= iterations; ++i) {
    // Phase 2: every node sends its requests.
    exchange.open();
    for (std::size_t v = 0; v < nodes; ++v) {
      sampler.for_each_request(
          v, [&](std::size_t to, const Request&) { exchange.count(v, to); });
    }
    exchange.seal(requests);
    for (std::size_t v = 0; v < nodes; ++v) {
      sampler.for_each_request(v, [&](std::size_t to, const Request& request) {
        exchange.put(requests, to, request);
      });
    }
    exchange.close(requests);

    // Phase 3: every node answers each request it received, in inbox order.
    exchange.open();
    for (std::size_t v = 0; v < nodes; ++v) {
      for (std::size_t k = requests.begin(v); k < requests.end(v); ++k) {
        if (requests.is_late(k)) continue;
        const auto requester = requests.slots[k].requester;
        exchange.count(v, static_cast<std::size_t>(requester));
      }
    }
    exchange.seal(responses);
    for (std::size_t v = 0; v < nodes; ++v) {
      for (std::size_t k = requests.begin(v); k < requests.end(v); ++k) {
        if (requests.is_late(k)) {
          ++stats.late_copies;
          continue;
        }
        const Request& request = requests.slots[k];
        exchange.put(responses, static_cast<std::size_t>(request.requester),
                     sampler.serve(v, request, i));
      }
      sampler.end_serve(v, i);
    }
    exchange.close(responses);

    // Phase 4: every node accepts the responses it received, then draws
    // the next iteration's requests.
    for (std::size_t v = 0; v < nodes; ++v) {
      for (std::size_t k = responses.begin(v); k < responses.end(v); ++k) {
        if (responses.is_late(k)) {
          ++stats.late_copies;
          continue;
        }
        sampler.accept(v, responses.slots[k]);
      }
      sampler.end_accept(v);
      if (i < iterations) sampler.make_requests(v, i + 1);
    }
  }
  stats.rounds = exchange.round();
  stats.max_node_bits_per_round = exchange.max_node_bits();
  return stats;
}

}  // namespace reconfnet::sampling
