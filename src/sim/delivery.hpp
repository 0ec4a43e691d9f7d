// The delivery core: the one implementation of the synchronous round
// boundary (Section 1.1) and of the fault-injection hook contract
// (DESIGN.md §10). sim::Bus (sim/bus.hpp) and the samplers' request/serve/
// accept exchange (sampling/exchange.hpp) both move their messages through
// it.
//
// A round's copies are bucketed by destination with a stable counting sort
// into one flat buffer. open() starts a round over destinations [0, nodes)
// and takes the copies the delay queue releases now. count() runs once per
// message, in send order: the hook decides the message's fate, deferred
// copies join the delay queue, and the copies that land now are counted.
// seal() lays out the buckets and lands the released copies at their heads;
// put() then writes each message's copies in the order count() saw them,
// and close() lets the hook permute each non-empty inbox, in ascending node
// order, before the hook's clock and the round advance. So an inbox holds
// the released copies first, in delay-queue order, then this round's copies
// in send order, then the hook's permutation.
//
// The sort runs over W fixed node ranges, an input: range w counts into its
// own row and puts through its own cursors, and the prefix sum runs in
// (destination, range) order. Ranges may therefore run concurrently, and as
// long as range w's senders all precede range w+1's, every inbox is what one
// range gives. A hook sees the messages in one order, so a hooked core takes
// one range. The exchange splits its nodes into one range per CPU; the Bus
// takes one range, because its messages arrive in send order, not grouped by
// sender.
//
// What differs between the callers is passed in: the slot type, what a
// delayed copy carries (Carry), how a released copy lands in its slot, and
// the blocked set that a released copy's receiver is checked against.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/blocked.hpp"
#include "sim/types.hpp"

namespace reconfnet::sim {

/// Interposes on delivery (the fault-injection hook point). The core
/// consults the hook only for messages that already passed the blocking rule,
/// so injected faults compose with — never mask — the adversary's drops.
class DeliveryHook {
 public:
  DeliveryHook() = default;
  DeliveryHook(const DeliveryHook&) = delete;
  DeliveryHook& operator=(const DeliveryHook&) = delete;
  DeliveryHook(DeliveryHook&&) = delete;
  DeliveryHook& operator=(DeliveryHook&&) = delete;
  virtual ~DeliveryHook() = default;

  /// Decides the fate of one message crossing the boundary of `round`.
  /// Append one entry per copy to deliver: 0 = deliver at the next round as
  /// usual, k > 0 = deliver k rounds late. Leaving `deliveries` empty drops
  /// the message. The first entry is the message itself; every further entry
  /// is an injected duplicate.
  virtual void on_message(NodeId from, NodeId to, Round round,
                          std::vector<Round>& deliveries) = 0;

  /// Optionally permutes the inbox of `node` for the round now beginning.
  /// Return true and fill `perm` with a permutation of [0, count) to reorder;
  /// return false to keep arrival order.
  virtual bool reorder(NodeId node, Round round, std::size_t count,
                       std::vector<std::size_t>& perm) = 0;

  /// Called once per round so hooks with round-indexed schedules (partitions,
  /// crashes) can advance a clock that is shared across several buses.
  virtual void on_step(Round round) = 0;
};

/// The loss rule of code that offers a message to the hook directly instead
/// of through a round boundary (the grouped overlays' sampler exchange, the
/// workload driver's request legs): the message is lost unless some copy
/// arrives on time, that is, when the hook drops it or delays every copy.
/// `fate` is the caller's scratch.
[[nodiscard]] inline bool lost_to_hook(DeliveryHook& hook, NodeId from,
                                       NodeId to, Round round,
                                       std::vector<Round>& fate) {
  fate.clear();
  hook.on_message(from, to, round, fate);
  return std::none_of(fate.begin(), fate.end(),
                      [](Round delay) { return delay == 0; });
}

/// Allocator of inbox slots. seal() lays out exactly the slots that put()
/// then fills, so value-initializing a trivially copyable slot first would
/// only add a serial pass over the buffer; such a slot is left as allocated,
/// and each page is first touched by the range that fills it. Other slots
/// are constructed as usual.
template <typename T>
struct SlotAllocator : std::allocator<T> {
  SlotAllocator() = default;
  template <typename U>
  SlotAllocator(const SlotAllocator<U>& /*other*/) noexcept {}
  template <typename U>
    requires std::is_trivially_copyable_v<U>
  void construct(U* /*slot*/) noexcept {}
};
// std::allocator has no rebind member since C++20, so a container rebinds
// to SlotAllocator itself and keeps the no-op construct.
static_assert(std::is_same_v<
              std::allocator_traits<SlotAllocator<int>>::rebind_alloc<long>,
              SlotAllocator<long>>);

/// One round's inboxes: slots [offsets[v], offsets[v+1]) are the inbox of
/// node v. Buffers keep their capacity until release().
template <typename Slot>
struct Inboxes {
  std::vector<std::size_t> offsets;
  std::vector<Slot, SlotAllocator<Slot>> slots;
  /// Empty, or one flag per slot marking copies released from the delay
  /// queue.
  std::vector<std::uint8_t> late;
  /// Permutation scratch for hook reordering.
  std::vector<Slot> scratch_slots;
  std::vector<std::uint8_t> scratch_late;

  [[nodiscard]] std::size_t begin(std::size_t v) const { return offsets[v]; }
  [[nodiscard]] std::size_t end(std::size_t v) const { return offsets[v + 1]; }
  [[nodiscard]] bool is_late(std::size_t slot) const {
    return !late.empty() && late[slot] != 0;
  }
  /// The inbox of node v; empty above the round's highest destination.
  [[nodiscard]] std::span<const Slot> of(std::size_t v) const {
    if (offsets.empty() || v >= offsets.size() - 1) return {};
    return {slots.data() + begin(v), end(v) - begin(v)};
  }
  /// Frees the slots and late flags; the next seal() allocates them again.
  void release() {
    decltype(slots)().swap(slots);
    std::vector<std::uint8_t>().swap(late);
  }
};

/// What open() did with the copies the delay queue released.
struct Released {
  std::size_t landing = 0;  ///< land this round, at the head of their inbox
  std::size_t dropped = 0;  ///< receiver blocked in this round
};

/// The round boundary for one set of nodes and their hook. A round is
/// open(), then count(range, ...) once per message, seal(), then
/// put(range, ...) once per counted message in the same order, then close().
/// Within a range, count and put follow send order; a range touches only
/// its own row of counts_ and the slots the prefix sum gave that row.
template <typename Carry>
class DeliveryCore {
 public:
  DeliveryCore(std::size_t ranges, DeliveryHook* hook)
      : ranges_(ranges), hook_(hook) {}

  /// Attaches (or detaches, with nullptr) the hook; it must outlive the core.
  void set_hook(DeliveryHook* hook) { hook_ = hook; }

  /// Starts a round over destinations [0, nodes): takes the copies the
  /// delay queue releases now, except those whose receiver is in `blocked`,
  /// which are dropped, and counts them at the head of their buckets.
  Released open(std::size_t nodes, const BlockedSet& blocked) {
    nodes_ = nodes;
    counts_.assign(ranges_ * nodes, 0);
    copies_.clear();
    next_message_ = 0;
    Released released;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < delayed_.size(); ++i) {
      Delayed& copy = delayed_[i];
      if (copy.due != round_) {
        if (kept != i) delayed_[kept] = std::move(copy);
        ++kept;
      } else if (blocked.contains(copy.to)) {
        ++released.dropped;
      } else {
        ++counts_[copy.to];  // row 0: released copies head their bucket
        // reconfnet-hotcheck: allow(RNH404) the release list keeps its
        // capacity across rounds and grows only while the hook defers
        released_.push_back(std::move(copy));
      }
    }
    delayed_.erase(delayed_.begin() + static_cast<std::ptrdiff_t>(kept),
                   delayed_.end());
    released.landing = released_.size();
    return released;
  }

  /// Once per message of `range`, in send order: the hook decides the
  /// message's fate, copies it defers join the delay queue carrying `carry`,
  /// and the copies that land this round are counted. Returns the fate: one
  /// entry per copy, 0 on time and k > 0 for k rounds late; none if dropped.
  std::span<const Round> count(std::size_t range, NodeId from,
                               std::size_t to, const Carry& carry) {
    std::size_t& bucket = counts_[range * nodes_ + to];
    if (hook_ == nullptr) {
      ++bucket;
      return kOnTime;
    }
    fate_.clear();
    hook_->on_message(from, to, round_, fate_);
    std::size_t on_time = 0;
    for (const Round delay : fate_) {
      if (delay <= 0) {
        ++on_time;
      } else {
        // reconfnet-hotcheck: allow(RNH404) the delay queue keeps its
        // capacity across rounds and grows only while the hook defers
        delayed_.push_back({to, round_ + delay, carry});
      }
    }
    if (on_time > std::numeric_limits<std::uint8_t>::max()) {
      throw std::length_error("DeliveryCore: a hook asked for over 255 copies");
    }
    bucket += on_time;
    copies_.push_back(static_cast<std::uint8_t>(on_time));
    return fate_;
  }

  /// Between the passes: lays out the buckets by a prefix sum in
  /// (destination, range) order, turns each count into its range's cursor,
  /// and lands the released copies at the head of their buckets, in
  /// delay-queue order; land(carry) makes each one's slot.
  template <typename Slot, typename Land>
  void seal(Inboxes<Slot>& box, const Land& land) {
    box.offsets.resize(nodes_ + 1);
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
    box.slots.clear();
    box.slots.resize(total);
    box.late.clear();
    if (released_.empty()) return;
    box.late.assign(total, 0);
    for (Delayed& copy : released_) {
      const std::size_t slot = counts_[copy.to]++;
      box.slots[slot] = land(std::move(copy.carry));
      box.late[slot] = 1;
    }
    released_.clear();
  }

  /// Once per counted message of `range`, in the order of count(): writes
  /// the message's on-time copies into its destination's bucket.
  template <typename Slot, typename Msg>
  void put(std::size_t range, Inboxes<Slot>& box, std::size_t to,
           Msg&& msg) {
    std::size_t& cursor = counts_[range * nodes_ + to];
    if (hook_ == nullptr) {
      box.slots[cursor++] = std::forward<Msg>(msg);
      return;
    }
    const std::uint8_t copies = copies_[next_message_++];
    for (std::uint8_t copy = 1; copy < copies; ++copy) {
      box.slots[cursor++] = msg;
    }
    if (copies > 0) box.slots[cursor++] = std::forward<Msg>(msg);
  }

  /// Ends the round: the hook may permute each non-empty inbox, in
  /// ascending node order, and its clock advances with the round.
  template <typename Slot>
  void close(Inboxes<Slot>& box) {
    if (hook_ != nullptr) {
      for (std::size_t v = 0; v < nodes_; ++v) reorder(box, v);
      hook_->on_step(round_);
    }
    ++round_;
  }

  [[nodiscard]] Round round() const { return round_; }
  /// Deferred copies still waiting for their delivery round.
  [[nodiscard]] std::size_t delayed_pending() const { return delayed_.size(); }

 private:
  static constexpr Round kOnTime[] = {0};

  /// A copy the hook deferred to round `due`.
  struct Delayed {
    std::size_t to = 0;
    Round due = 0;
    [[no_unique_address]] Carry carry;
  };

  template <typename Slot>
  void reorder(Inboxes<Slot>& box, std::size_t v) {
    const std::size_t first = box.begin(v);
    const std::size_t size = box.end(v) - first;
    if (size == 0) return;
    perm_.clear();
    if (!hook_->reorder(v, round_, size, perm_)) return;
    if (perm_.size() != size) return;
    permute(box.slots, first, box.scratch_slots);
    if (!box.late.empty()) permute(box.late, first, box.scratch_late);
  }

  /// values[first + k] = old values[first + perm_[k]] for every k.
  template <typename Values, typename T>
  void permute(Values& values, std::size_t first,
               std::vector<T>& scratch) const {
    scratch.resize(perm_.size());
    for (std::size_t k = 0; k < perm_.size(); ++k) {
      scratch[k] = std::move(values[first + perm_[k]]);
    }
    std::move(scratch.begin(), scratch.end(),
              values.begin() + static_cast<std::ptrdiff_t>(first));
  }

  std::size_t ranges_;
  DeliveryHook* hook_;
  std::size_t nodes_ = 0;
  Round round_ = 0;
  /// Row r (nodes_ entries from r * nodes_) is range r's: the copies its
  /// senders send to each node this round, and after seal() its cursor into
  /// that node's bucket.
  std::vector<std::size_t> counts_;
  /// With a hook: on-time copies per message of this round, in send order.
  std::vector<std::uint8_t> copies_;
  std::size_t next_message_ = 0;
  std::vector<Delayed> delayed_;
  /// Copies open() took from the delay queue, landed by seal().
  std::vector<Delayed> released_;
  std::vector<Round> fate_;
  std::vector<std::size_t> perm_;
};

}  // namespace reconfnet::sim
