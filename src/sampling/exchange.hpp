// The request/serve/accept exchange shared by Algorithms 1 and 2
// (DESIGN.md §4).
//
// Both rapid samplers run the same two-round iteration: every node sends its
// requests (Phase 2), every node answers each request it received with one
// response (Phase 3), and every node accepts the responses it received
// (Phase 4). The exchange carries these messages without sim::Bus. A round's
// messages are bucketed by destination with a stable counting sort into one
// flat buffer per message kind, so
//   - requests reach a server in ascending sender order, then in send order;
//   - responses reach a requester in ascending responder order, then in the
//     requester's own send order.
// That is the inbox order of sim::Bus, so every per-node RNG draw happens
// where it happens over the Bus and every output matches it bit for bit.
//
// Node ranges: a node's work in a phase reads only its own state and its own
// inbox, so every per-node pass runs over W fixed node ranges
// [n*w/W, n*(w+1)/W), one task per range. Each range counts its messages into
// its own per-destination row, and one serial prefix sum in (destination,
// range) order lays out the buckets: range w's senders all precede range
// w+1's, so each inbox keeps its ascending-sender order, and each node draws
// from its own RNG stream, so every output is the same for any W. W is the
// number of CPUs the calling thread may run on, capped so that no range is
// smaller than kMinRangeNodes. It is 1 under a hook, which must see the
// messages in send order, and on a thread-pool worker, whose siblings
// already share the CPUs; the one range then runs inline. The pool lives for
// one run_exchange call. Storage that outlives a pass (per-node state, the
// buffers below) is allocated and freed only on the calling thread, so the
// workers never grow an allocator arena of their own.
//
// The message buffers are laid out without being zeroed (SlotAllocator):
// put() writes every slot before anything reads it. The response buffer
// keeps its capacity across rounds. The request buffer is freed as soon as
// Phase 3 has served it, before the samplers end Phase 3 and build the
// multisets of Phase 4: iteration 1 sends the most requests (m_1 per node in
// Algorithm 1), and holding them through Phase 4 would add their size to the
// peak. The next Phase 2 allocates the buffer again, once.
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
#include <memory>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "sim/bus.hpp"
#include "sim/types.hpp"

namespace reconfnet::sampling {

/// Totals of one exchange run.
struct ExchangeStats {
  sim::Round rounds = 0;
  std::uint64_t max_node_bits_per_round = 0;
  /// Copies a fault hook delivered after their phase had ended (discarded).
  std::size_t late_copies = 0;
  /// Node ranges the run was split into (exchange_ranges); no other field
  /// depends on it.
  std::size_t ranges = 1;
};

/// The fewest nodes a range of its own is worth: below this, starting and
/// feeding a worker costs more than the range's share of a pass.
inline constexpr std::size_t kMinRangeNodes = 128;

/// Node ranges an exchange over `nodes` nodes runs on: one per CPU in the
/// calling thread's affinity mask, capped by nodes / kMinRangeNodes, and 1
/// under a hook or on a thread-pool worker.
inline std::size_t exchange_ranges(std::size_t nodes,
                                   const sim::DeliveryHook* hook) {
  if (hook != nullptr || runtime::ThreadPool::on_worker_thread()) return 1;
  return std::clamp<std::size_t>(nodes / kMinRangeNodes, 1,
                                 runtime::ThreadPool::hardware_workers());
}

/// Allocator of inbox slots whose resize() leaves new slots unwritten.
/// seal() lays out exactly the slots that put() then fills (or marks late),
/// so zeroing them first would only add a serial pass over the buffer; this
/// way each page is first touched by the range that fills it.
template <typename T>
struct SlotAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T>);
  SlotAllocator() = default;
  template <typename U>
  SlotAllocator(const SlotAllocator<U>& /*other*/) noexcept {}
  /// Value-initialization: the slot stays as allocated.
  template <typename U>
  void construct(U* /*slot*/) noexcept {}
};
// std::allocator has no rebind member since C++20, so a container rebinds
// to SlotAllocator itself and keeps the no-op construct.
static_assert(std::is_same_v<
              std::allocator_traits<SlotAllocator<int>>::rebind_alloc<long>,
              SlotAllocator<long>>);

/// One round's inboxes for one message kind: slots [offsets[v], offsets[v+1])
/// are the inbox of node v. Buffers keep their capacity until release().
template <typename Msg>
struct Inboxes {
  using Slots = std::vector<Msg, SlotAllocator<Msg>>;

  std::vector<std::size_t> offsets;
  Slots slots;
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
  /// Frees the slots and late flags; the next seal() allocates them again.
  void release() {
    Slots().swap(slots);
    std::vector<std::uint8_t>().swap(late);
  }
};

/// Delivery machinery of the exchange: the node ranges and their pool,
/// counts, the stable counting sort, the hook and its delay queue, the round
/// clock and the work meter. A round is open(), then count(range, from, to)
/// once per message, seal(), then put(range, to, msg) once per message in
/// the same order, then close(). Within a range, count and put follow send
/// order; a range touches only its own row of counts_ and the sent_ entries
/// and slots of its own senders.
template <typename Request, typename Response>
class Exchange {
 public:
  Exchange(std::size_t nodes, std::uint64_t bits_per_msg,
           sim::DeliveryHook* hook)
      : nodes_(nodes),
        bits_(bits_per_msg),
        hook_(hook),
        ranges_(exchange_ranges(nodes, hook)) {
    if (nodes > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("Exchange: more than 2^32 nodes");
    }
    counts_.assign(ranges_ * nodes, 0);
    sent_.assign(nodes, 0);
    requests.offsets.assign(nodes + 1, 0);
    responses.offsets.assign(nodes + 1, 0);
    if (ranges_ > 1) pool_.emplace(ranges_);
  }

  Inboxes<Request> requests;
  Inboxes<Response> responses;

  [[nodiscard]] std::size_t ranges() const { return ranges_; }

  /// One pass: calls body(range, v) for every node v, in ascending order
  /// within its range. The one range runs inline, several as one
  /// parallel_for on the pool.
  template <typename Body>
  void for_each_node(const Body& body) {
    if (!pool_) {
      for (std::size_t v = 0; v < nodes_; ++v) body(std::size_t{0}, v);
      return;
    }
    runtime::parallel_for(*pool_, ranges_, [&](std::size_t range) {
      const std::size_t last = first_node(range + 1);
      for (std::size_t v = first_node(range); v < last; ++v) body(range, v);
    });
  }

  /// Starts a round: copies the hook delayed to this round land first.
  void open() {
    std::fill(counts_.begin(), counts_.end(), 0);
    copies_.clear();
    next_message_ = 0;
    released_ = 0;
    for (const Delayed& copy : delayed_) {
      if (copy.due != round_) continue;
      ++counts_[copy.to];  // a hook means one range: row 0
      ++released_;
    }
  }

  /// First pass, once per message of the range in send order: consults the
  /// hook for the message's fate and counts the copies that land this round.
  void count(std::size_t range, std::size_t from, std::size_t to) {
    ++sent_[from];
    std::size_t& bucket = counts_[range * nodes_ + to];
    if (hook_ == nullptr) {
      ++bucket;
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
    bucket += on_time;
    copies_.push_back(static_cast<std::uint8_t>(on_time));
  }

  /// Between the passes: lays out the buckets by a prefix sum in
  /// (destination, range) order, turns each count into its range's cursor,
  /// and places the late copies released this round at the head of their
  /// buckets, in delay-queue order.
  template <typename Msg>
  void seal(Inboxes<Msg>& box) {
    std::size_t total = 0;
    for (std::size_t v = 0; v < nodes_; ++v) {
      box.offsets[v] = total;
      for (std::size_t range = 0; range < ranges_; ++range) {
        std::size_t& cell = counts_[range * nodes_ + v];
        const std::size_t count = cell;
        cell = total;
        total += count;
      }
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
      const std::size_t slot = counts_[copy.to]++;
      box.slots[slot] = Msg{};
      box.late[slot] = 1;
    }
    delayed_.resize(kept);
  }

  /// Second pass, once per message of the range in the order of count():
  /// writes the message's on-time copies into its destination bucket.
  template <typename Msg>
  void put(std::size_t range, Inboxes<Msg>& box, std::size_t to,
           const Msg& msg) {
    std::size_t& cursor = counts_[range * nodes_ + to];
    if (hook_ == nullptr) {
      box.slots[cursor++] = msg;
      return;
    }
    for (std::uint8_t copy = copies_[next_message_++]; copy > 0; --copy) {
      box.slots[cursor++] = msg;
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

  [[nodiscard]] std::size_t first_node(std::size_t range) const {
    return nodes_ * range / ranges_;
  }

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
  template <typename Values, typename T>
  void permute(Values& values, std::size_t first,
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
  std::size_t ranges_;
  /// Workers for ranges_ > 1; their threads end with the exchange.
  std::optional<runtime::ThreadPool> pool_;
  sim::Round round_ = 0;
  std::uint64_t max_node_bits_ = 0;
  /// Row r (nodes_ entries from r * nodes_) is range r's: the copies its
  /// senders send to each node this round, and after seal() its cursor into
  /// that node's bucket.
  std::vector<std::size_t> counts_;
  std::vector<std::size_t> sent_;  ///< messages sent per node this round
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
///   - allocate(v), then init(v): Phase 1's storage, then its draws;
///   - make_requests(v, i): Phase 2's draws;
///   - for_each_request(v, f): calls f(to, request) per request of v in
///     send order; the exchange calls it twice per iteration;
///   - serve(v, request, i) -> Response (Phase 3), then end_serve(v, i)
///     once every node has served;
///   - accept(v, response), then end_accept(v) (Phase 4).
/// allocate and end_serve run on the calling thread, so they may allocate
/// and free. Every other call runs in v's range, on any thread, and may
/// touch only v's own state, within capacity those two left.
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
  std::vector<std::size_t> late(exchange.ranges(), 0);  // per range
  // Phase 1, and Phase 2's draws of the first iteration.
  for (std::size_t v = 0; v < nodes; ++v) sampler.allocate(v);
  exchange.for_each_node([&](std::size_t /*range*/, std::size_t v) {
    sampler.init(v);
    if (iterations > 0) sampler.make_requests(v, 1);
  });
  for (int i = 1; i <= iterations; ++i) {
    // Phase 2: every node sends its requests.
    exchange.open();
    exchange.for_each_node([&](std::size_t range, std::size_t v) {
      sampler.for_each_request(v, [&](std::size_t to, const Request&) {
        exchange.count(range, v, to);
      });
    });
    exchange.seal(requests);
    exchange.for_each_node([&](std::size_t range, std::size_t v) {
      sampler.for_each_request(v, [&](std::size_t to, const Request& request) {
        exchange.put(range, requests, to, request);
      });
    });
    exchange.close(requests);

    // Phase 3: every node answers each request it received, in inbox order.
    exchange.open();
    exchange.for_each_node([&](std::size_t range, std::size_t v) {
      for (std::size_t k = requests.begin(v); k < requests.end(v); ++k) {
        if (requests.is_late(k)) continue;
        const auto requester = requests.slots[k].requester;
        exchange.count(range, v, static_cast<std::size_t>(requester));
      }
    });
    exchange.seal(responses);
    exchange.for_each_node([&](std::size_t range, std::size_t v) {
      for (std::size_t k = requests.begin(v); k < requests.end(v); ++k) {
        if (requests.is_late(k)) {
          ++late[range];
          continue;
        }
        const Request& request = requests.slots[k];
        exchange.put(range, responses,
                     static_cast<std::size_t>(request.requester),
                     sampler.serve(v, request, i));
      }
    });
    exchange.close(responses);
    requests.release();
    for (std::size_t v = 0; v < nodes; ++v) sampler.end_serve(v, i);

    // Phase 4: every node accepts the responses it received, then draws
    // the next iteration's requests.
    exchange.for_each_node([&](std::size_t range, std::size_t v) {
      for (std::size_t k = responses.begin(v); k < responses.end(v); ++k) {
        if (responses.is_late(k)) {
          ++late[range];
          continue;
        }
        sampler.accept(v, responses.slots[k]);
      }
      sampler.end_accept(v);
      if (i < iterations) sampler.make_requests(v, i + 1);
    });
  }
  ExchangeStats stats;
  stats.rounds = exchange.round();
  stats.max_node_bits_per_round = exchange.max_node_bits();
  for (const std::size_t copies : late) stats.late_copies += copies;
  stats.ranges = exchange.ranges();
  return stats;
}

}  // namespace reconfnet::sampling
