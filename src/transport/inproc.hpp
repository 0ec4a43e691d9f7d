// In-process transport backend: sim::Bus delivery semantics behind the
// Transport seam (DESIGN.md §15).
//
// The hub owns one Bus<encoded frame> shared by every endpoint; each send
// runs through the FaultPlan-driven PacketMangler — the same sender-side
// seam the UDP backend interposes, so crash and partition windows are
// round-for-round identical across the two backends — and then through the
// wire codec, straight into the hub's frame arena. Heartbeats are metered by
// the protocol but not transmitted here: the lockstep driver needs no
// liveness signal.
//
// InprocDeployment is the lockstep driver on top: n NodeProtocol instances,
// one bus round per protocol round, crashed nodes skipped (and their
// protocol state reset at restart — a rebooted process starts from the
// initial configuration and must rejoin via the state broadcasts). This is
// the reference run the live UDP deployment is validated against, and —
// with an empty fault plan — it reproduces dos::run_node_level_epoch's
// reorganized tables exactly (tests/transport_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "dos/group_table.hpp"
#include "fault/plan.hpp"
#include "sim/bus.hpp"
#include "sim/metrics.hpp"
#include "sim/types.hpp"
#include "transport/mangler.hpp"
#include "transport/node_protocol.hpp"
#include "transport/transport.hpp"

namespace reconfnet::transport {

/// One encoded frame on the in-process bus: where the hub's arena holds the
/// exact bytes UdpTransport would put in a datagram (registered in
/// tools/protocheck/protocol.toml). A location, not a pointer, so the bus
/// payload stays a plain value.
struct Frame {
  std::uint32_t chunk = 0;
  std::uint32_t offset = 0;
  std::uint32_t size = 0;
};

/// The encoded frames of one round, packed front to back into fixed-size
/// chunks that are allocated on first use and recycled every round. A frame
/// larger than a chunk gets a chunk of its own.
class FrameArena {
 public:
  /// Reserves `size` bytes for one frame; write them through bytes().
  /// Throws std::length_error above 4 GiB, which the wire's 32-bit length
  /// field cannot describe.
  Frame allocate(std::size_t size);

  [[nodiscard]] std::span<std::uint8_t> bytes(const Frame& frame) {
    return {chunks_[frame.chunk].bytes.get() + frame.offset, frame.size};
  }
  [[nodiscard]] std::span<const std::uint8_t> bytes(const Frame& frame) const {
    return {chunks_[frame.chunk].bytes.get() + frame.offset, frame.size};
  }

  /// Forgets every frame and keeps the chunks for the next round.
  void clear() {
    open_ = 0;
    used_ = 0;
  }

 private:
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 18;

  struct Chunk {
    std::unique_ptr<std::uint8_t[]> bytes;
    std::size_t capacity = 0;
  };

  std::vector<Chunk> chunks_;
  std::size_t open_ = 0;  ///< chunks in use this round; the last one fills
  std::size_t used_ = 0;  ///< bytes used in chunks_[open_ - 1]
};

/// Shared state of one in-process deployment: the bus, the work meter, the
/// packet mangler all endpoints route through, and the frame arenas.
class InprocHub {
 private:
  // State precedes the methods: the protocol-conformance checker
  // (tools/protocheck) attributes send/inbox/step sites to the nearest
  // preceding Bus binding.
  sim::WorkMeter meter_;
  sim::Bus<Frame> bus_;
  PacketMangler mangler_;
  /// Frames sent this round, and frames delivered at its start (sent in the
  /// round before). The bus has no delivery hook, so every frame is read in
  /// the round after it was sent or never, and step() can recycle the
  /// delivered arena for the next round's sends.
  FrameArena sending_;
  FrameArena delivered_;
  std::vector<bool> endpoints_;  ///< ids with an attached endpoint
  std::uint64_t unroutable_ = 0;

 public:
  InprocHub(fault::FaultPlan plan, std::uint64_t fault_salt)
      : bus_(&meter_), mangler_(std::move(plan), fault_salt) {}

  [[nodiscard]] PacketMangler& mangler() { return mangler_; }
  [[nodiscard]] const sim::WorkMeter& meter() const { return meter_; }
  /// Frames dropped because no endpoint has their destination id.
  [[nodiscard]] std::uint64_t unroutable_frames() const { return unroutable_; }

  /// Registers the endpoint of `node`; frames to ids without one are dropped.
  void attach(sim::NodeId node) {
    const auto index = static_cast<std::size_t>(node);
    if (index >= endpoints_.size()) endpoints_.resize(index + 1);
    endpoints_[index] = true;
  }

  /// Ships `msg` to every id in `to`, in order, each copy charged at the
  /// frame's exact byte length. A destination without an endpoint is
  /// counted unroutable, and the mangler may drop any other. The frame is
  /// encoded into this round's arena once, at the first destination that
  /// survives, and every envelope points at those bytes. Returns the number
  /// of destinations the frame was sent to.
  std::size_t send(sim::NodeId from, std::span<const sim::NodeId> to,
                   const Message& msg) {
    Frame frame;
    std::size_t sent = 0;
    for (const sim::NodeId dest : to) {
      if (dest >= endpoints_.size() ||
          !endpoints_[static_cast<std::size_t>(dest)]) {
        ++unroutable_;
        continue;
      }
      if (mangler_.drop(from, dest, bus_.round(), /*attempt=*/0)) continue;
      if (sent == 0) {
        frame = sending_.allocate(encoded_bytes(msg));
        encode_into(msg, sending_.bytes(frame));
      }
      bus_.send(from, dest, frame, 8ull * frame.size);
      ++sent;
    }
    return sent;
  }

  /// Frames delivered to `node` for the current round.
  [[nodiscard]] std::span<const sim::Envelope<Frame>> inbox(sim::NodeId node) {
    return bus_.inbox(node);
  }

  /// The bytes of a frame from inbox().
  [[nodiscard]] std::span<const std::uint8_t> bytes(const Frame& frame) const {
    return delivered_.bytes(frame);
  }

  /// Advances the round boundary (no DoS blocking on the transport path):
  /// this round's frames become the delivered ones, and the arena of the
  /// frames just read takes the next round's sends.
  void step() {
    bus_.step();
    std::swap(sending_, delivered_);
    sending_.clear();
  }
};

/// One node's endpoint on the hub.
class InprocTransport final : public Transport {
 public:
  struct Counters {
    std::uint64_t datagrams_sent = 0;
    std::uint64_t datagrams_received = 0;
    std::uint64_t decode_failures = 0;
  };

  InprocTransport(InprocHub* hub, sim::NodeId self) : hub_(hub), self_(self) {
    hub_->attach(self_);
  }

  using Transport::send;
  void send(std::span<const sim::NodeId> to, const Message& msg) override;
  void poll(std::vector<sim::Envelope<Message>>& out) override;
  void advance_round(sim::Round round) override { (void)round; }

  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  InprocHub* hub_;
  sim::NodeId self_;
  Counters counters_;
};

/// Lockstep driver: the whole Section 5 deployment in one process.
struct InprocDeploymentConfig {
  int nodes = 64;
  int dimension = 3;
  std::uint64_t table_seed = 1;  ///< seeds GroupTable::random
  NodeProtocol::Config protocol{};
  fault::FaultPlan plan{};  ///< scripted crashes / id_below partitions / loss
  std::uint64_t fault_salt = 0x7261ull;
  sim::Round max_rounds = 4096;  ///< hard cap: a wedge fails, never hangs
};

class InprocDeployment {
 public:
  struct Report {
    sim::Round rounds = 0;
    int finished = 0;        ///< protocols that completed all epochs
    int crashed_forever = 0; ///< crash-stop nodes (excluded from wedging)
    bool all_live_finished = false;  ///< no live node hit the round cap
  };

  explicit InprocDeployment(InprocDeploymentConfig config);

  /// Runs rounds until every live node finished (or the cap strikes).
  Report run();

  [[nodiscard]] const NodeProtocol& node(sim::NodeId id) const {
    return *protocols_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const dos::GroupTable& initial_table() const {
    return *initial_table_;
  }
  [[nodiscard]] const InprocHub& hub() const { return hub_; }

 private:
  InprocDeploymentConfig config_;
  InprocHub hub_;
  std::shared_ptr<const dos::GroupTable> initial_table_;  ///< nodes share it
  std::vector<std::unique_ptr<NodeProtocol>> protocols_;
  std::vector<std::unique_ptr<InprocTransport>> endpoints_;
};

}  // namespace reconfnet::transport
