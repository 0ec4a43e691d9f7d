// Live UDP transport backend (DESIGN.md §15).
//
// One non-blocking UDP socket per process, peers addressed as
// 127.0.0.1:(base_port + node id). Protocol frames (wire.hpp) travel inside
// link datagrams (reliable_link.hpp): heartbeats fire-and-forget, everything
// else through the per-peer reliable channel. Delivery reproduces the bus
// contract: incoming frames are staged by their sender-round tag and poll()
// releases exactly the previous round's stage; frames that miss their
// delivery window — at arrival or still staged once the window passed — are
// counted late and dropped (the live analog of the simulator's synchronous
// drop). Heartbeats are round-COMPLETION announcements: a node sends one
// only once every reliable frame of its current round is acked, so the
// pacer quorum doubles as a delivery barrier.
//
// The PacketMangler interposes at this seam, on every transmission attempt —
// the sender-side fault injection the deployment scripts drive. The datagram
// handler (on_datagram) is socket-free so tests can feed it raw bytes; the
// heartbeat path through it is allocation-free once warm (pinned by
// tools/hotcheck + tests/allocbudget_test.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "sim/types.hpp"
#include "transport/mangler.hpp"
#include "transport/reliable_link.hpp"
#include "transport/transport.hpp"
#include "transport/wire.hpp"

namespace reconfnet::transport {

struct UdpConfig {
  sim::NodeId self = 0;
  int nodes = 0;
  std::uint16_t base_port = 47000;
  std::uint32_t incarnation = 0;  ///< bumped by the deploy script on restart
  /// Optional sender-side fault seam; consulted per transmission attempt.
  /// Not owned; may be nullptr.
  PacketMangler* mangler = nullptr;
};

class UdpTransport final : public Transport {
 public:
  struct Counters {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t mangled = 0;         ///< transmissions eaten by the plan
    std::uint64_t send_errors = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t late_frames = 0;     ///< arrived after their delivery round
    std::uint64_t decode_failures = 0;
    std::uint64_t heartbeats_received = 0;
  };

  explicit UdpTransport(UdpConfig config);
  ~UdpTransport() override;

  /// Binds the socket (non-blocking). False on failure (port in use, ...).
  [[nodiscard]] bool open();
  void close();

  // Transport contract.
  using Transport::send;
  void send(std::span<const sim::NodeId> to, const Message& msg) override;
  void poll(std::vector<sim::Envelope<Message>>& out) override;
  void advance_round(sim::Round round) override;

  /// Drains the socket, feeding every datagram through on_datagram().
  void pump(std::int64_t now_us);

  /// Handles one raw datagram (socket-free; the alloc-budget tests call this
  /// directly). Returns false for malformed input.
  bool on_datagram(std::span<const std::uint8_t> bytes, std::int64_t now_us);

  /// Runs the reliable channels: due (re)transmissions and queued acks.
  void tick(std::int64_t now_us);

  /// Drops every pending reliable datagram tagged below `round` on every
  /// link — the runtime's give-up when the pacer forces an advance past a
  /// round whose frames could not be delivered (the simulator's permanent
  /// drop, made explicit).
  void cancel_stale(sim::Round round);

  /// Highest COMPLETED round announced by `peer` via heartbeat (-1 if
  /// never) — the pacer's input. Data frames do not move this: only a
  /// heartbeat proves the peer's round is fully acked and staged here.
  [[nodiscard]] sim::Round round_heard(sim::NodeId peer) const;

  [[nodiscard]] const Counters& counters() const { return counters_; }
  /// Aggregated reliable-channel counters over all peers.
  [[nodiscard]] ReliableLink::Counters link_totals() const;
  [[nodiscard]] const ReliableLink& link(sim::NodeId peer) const {
    return *links_[static_cast<std::size_t>(peer)];
  }
  [[nodiscard]] sim::Round round() const { return round_; }

 private:
  void transmit(sim::NodeId to, std::span<const std::uint8_t> bytes,
                std::uint32_t attempt, sim::Round send_round);
  void send_ack(sim::NodeId to, std::uint32_t seq);

  UdpConfig config_;
  int fd_ = -1;
  sim::Round round_ = 0;
  std::int64_t now_us_ = 0;  ///< last time seen by pump()/tick()
  std::vector<std::unique_ptr<ReliableLink>> links_;  ///< indexed by peer id
  std::vector<sim::Round> heard_;                     ///< indexed by peer id
  std::map<sim::Round, std::vector<sim::Envelope<Message>>> staged_;
  Counters counters_;

  // Recycled buffers (allocation-free steady state on the datagram paths).
  std::vector<std::uint8_t> encode_scratch_;
  std::vector<std::uint8_t> dgram_scratch_;  ///< outgoing heartbeat or ack
  std::vector<std::uint8_t> recv_scratch_;
  Message decode_scratch_;
};

}  // namespace reconfnet::transport
