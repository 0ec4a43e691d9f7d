// Per-peer reliable datagram channel for the UDP transport (DESIGN.md §15):
// the ack/retry core of fault/retry.hpp, with ticks counted in microseconds.
//
// UDP loses, duplicates and reorders; the protocol frames (everything except
// heartbeats) need at-most-once delivery. Each (local node, peer) pair gets
// one ReliableLink holding both halves:
//
//   * sender half: stages full datagrams under fresh sequence numbers,
//     retransmits them on the core's capped backoff until acked, and after
//     kLinkMaxTransmissions transmissions abandons the send *loudly* (typed
//     counter, surfaced in the node metrics) instead of blocking the round
//     loop,
//   * receiver half: acks every reliable datagram and deduplicates through
//     the core's delivered floor, so retransmit-after-ack-loss never
//     delivers twice.
//
// Incarnations make restarts safe: a rebooted process bumps its incarnation,
// the receiver resets its dedup state on the first higher-incarnation
// datagram, and stale acks or data from the previous life are ignored.
//
// The class is socket-free and clock-free (timestamps are passed in), so
// tests drive it directly; the UDP transport owns the sockets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/retry.hpp"
#include "sim/types.hpp"

namespace reconfnet::transport {

// Link-layer datagram header, pinned by tools/protocheck/protocol.toml:
// magic(2) + version(1) + op(1) + from(8) + incarnation(4) + seq(4).
inline constexpr std::uint16_t kLinkMagic = 0x4C52;  // "RL"
inline constexpr std::uint8_t kLinkVersion = 1;
inline constexpr std::size_t kLinkHeaderBytes = 20;

/// Retransmission schedule: the first retry 40 ms after a send, doubling to
/// a 640 ms cap, and at most 10 transmissions before the send is abandoned.
inline constexpr std::int64_t kLinkInitialTimeoutUs = 40'000;
inline constexpr std::int64_t kLinkBackoffCapUs = 640'000;
inline constexpr int kLinkMaxTransmissions = 10;

enum class LinkOp : std::uint8_t {
  kUnreliable = 0,  ///< fire-and-forget payload (heartbeats)
  kReliable = 1,    ///< payload needing an ack
  kAck = 2,         ///< ack for `seq` (no payload)
};

struct LinkHeader {
  LinkOp op = LinkOp::kUnreliable;
  sim::NodeId from = sim::kNoNode;
  std::uint32_t incarnation = 0;
  std::uint32_t seq = 0;
};

// The header codec lives in wire.cpp, written with the frame codec's
// little-endian primitives.

/// Writes the 20-byte header into `out` (resized to exactly the header;
/// capacity is recycled). The caller appends the payload.
void encode_link_header(const LinkHeader& header,
                        std::vector<std::uint8_t>& out);
/// Parses a header; false on short input, bad magic, version or op.
[[nodiscard]] bool decode_link_header(std::span<const std::uint8_t> bytes,
                                      LinkHeader& header);

class ReliableLink {
 public:
  struct Counters {
    std::uint64_t staged = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t acked = 0;
    std::uint64_t abandoned = 0;      ///< gave up after kLinkMaxTransmissions
    std::uint64_t canceled = 0;       ///< dropped by cancel_stale()
    std::uint64_t delivered = 0;      ///< fresh incoming reliable datagrams
    std::uint64_t duplicates = 0;     ///< deduplicated incoming datagrams
    std::uint64_t stale_incarnation = 0;  ///< old-life data or acks dropped
  };

  ReliableLink(sim::NodeId self, std::uint32_t incarnation)
      : self_(self), incarnation_(incarnation) {}

  /// Sender half: wraps `payload` in a reliable-data header under a fresh
  /// sequence number and stages it for (re)transmission. The first
  /// transmission happens at the next for_due() call. `tag` rides along
  /// untouched and is handed back on every transmission attempt — the UDP
  /// transport stores the frame's protocol round there so fault-plan drop
  /// decisions stay pure in the frame's ORIGINAL round (a retransmission of
  /// a partition-dropped frame is dropped again, exactly like the
  /// in-process injector's permanent drop).
  std::uint32_t stage(std::span<const std::uint8_t> payload,
                      std::int64_t now_us, std::int64_t tag = 0);

  /// Sender half: invokes fn(bytes, attempt, tag) for every staged datagram
  /// due at `now_us` (attempt 0 = first transmission) and re-arms its
  /// backoff. Datagrams past kLinkMaxTransmissions are abandoned and counted
  /// instead.
  template <typename Fn>
  void for_due(std::int64_t now_us, Fn&& fn) {
    sender_.for_due(
        now_us,
        [&](std::uint32_t, const Outgoing& out, int sent) {
          fn(std::span<const std::uint8_t>(out.datagram),
             static_cast<std::uint32_t>(sent), out.tag);
          if (sent > 0) ++counters_.retransmits;
        },
        [&](std::uint32_t, const Outgoing&, int) { ++counters_.abandoned; });
  }

  /// Sender half: an ack for `seq` arrived from the peer.
  void on_ack(std::uint32_t seq, std::uint32_t incarnation);

  /// Sender half: drops every pending datagram whose tag is below
  /// `before_tag`. The runtime calls this when the pacer forces a round
  /// advance: a frame that could not be delivered inside its round is dead
  /// weight (the receiver would reject it as late), so giving it up mirrors
  /// the simulator's permanent synchronous drop. Returns the number dropped.
  std::size_t cancel_stale(std::int64_t before_tag);

  /// Receiver half: a reliable datagram (seq, incarnation) arrived from the
  /// peer. Returns true iff it is fresh and should be delivered; an ack is
  /// queued either way (unless the incarnation is stale).
  [[nodiscard]] bool on_data(std::uint32_t seq, std::uint32_t incarnation);

  /// Receiver half: invokes fn(seq) for every queued ack and clears the
  /// queue. The caller sends the ack datagrams.
  template <typename Fn>
  void drain_acks(Fn&& fn) {
    for (const std::uint32_t seq : ack_queue_) fn(seq);
    ack_queue_.clear();
  }

  [[nodiscard]] std::size_t pending() const { return sender_.size(); }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] std::uint32_t peer_incarnation() const {
    return peer_incarnation_;
  }

 private:
  struct Outgoing {
    std::vector<std::uint8_t> datagram;  ///< header + payload, ready to send
    std::int64_t tag = 0;  ///< caller context (the frame's protocol round)
  };

  sim::NodeId self_;
  std::uint32_t incarnation_;

  // Sender half.
  fault::RetrySender<Outgoing> sender_{kLinkInitialTimeoutUs,
                                       kLinkBackoffCapUs, kLinkMaxTransmissions};

  // Receiver half.
  std::uint32_t peer_incarnation_ = 0;
  fault::DedupWindow delivered_;
  std::vector<std::uint32_t> ack_queue_;

  Counters counters_;
};

}  // namespace reconfnet::transport
