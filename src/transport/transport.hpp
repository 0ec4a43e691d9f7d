// The per-node transport seam of the live backend (DESIGN.md §15).
//
// A NodeProtocol never touches sockets or the simulator bus directly; it
// talks to a Transport, which carries already-encoded protocol frames
// between nodes. Two implementations exist:
//
//   * InprocTransport (inproc.hpp): endpoints of an in-process hub wrapping
//     sim::Bus — lockstep rounds, deterministic delivery, the reference
//     semantics the live backend is validated against. Frames still travel
//     through the wire codec, so the encoder/decoder is exercised on every
//     message in every test that uses the hub.
//   * UdpTransport (udp.hpp): non-blocking UDP datagrams on localhost, with
//     per-peer reliable channels for at-most-once delivery of protocol
//     frames and round-tagged staging that reproduces the bus's
//     "sent in round r, delivered in round r + 1" contract.
//
// The contract mirrors one bus round: the owner calls send() during its
// round r (frames are tagged with r by the protocol), advance_round(r + 1)
// at the boundary, and poll() to collect everything sent to it in round r.
// One send() carries one frame to a list of destinations, so a transport
// encodes each frame once however many receivers it has.
#pragma once

#include <span>
#include <vector>

#include "sim/bus.hpp"
#include "sim/types.hpp"
#include "transport/wire.hpp"

namespace reconfnet::transport {

class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  /// Queues one protocol frame to every id in `to`, in order. The frame's
  /// round/epoch/attempt tags must already be set (NodeProtocol::emit does).
  virtual void send(std::span<const sim::NodeId> to, const Message& msg) = 0;

  /// Queues one protocol frame to `to`.
  void send(sim::NodeId to, const Message& msg) { send({&to, 1}, msg); }

  /// Replaces `out`'s contents with every frame deliverable at the current
  /// round (sent in the previous one). A transport may decode into the
  /// entries `out` already holds, so a recycled inbox keeps its capacity.
  virtual void poll(std::vector<sim::Envelope<Message>>& out) = 0;

  /// Moves the delivery cursor to `round`.
  virtual void advance_round(sim::Round round) = 0;
};

}  // namespace reconfnet::transport
