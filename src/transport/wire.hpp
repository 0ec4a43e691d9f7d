// Deterministic little-endian wire codec for the Section 5 node-level
// protocol (DESIGN.md §15).
//
// One Message struct covers every frame the per-node protocol exchanges; the
// codec writes a fixed header (magic, version, kind, sender round, epoch,
// attempt) followed by a kind-specific body. Encoding is a pure function of
// the Message — no padding, no host-order leaks — so the same Message
// serializes to the same bytes in every process, and the frame bits charged
// to the communication-work accounting (8 * encoded_bytes) agree between the
// in-process and the UDP transport by construction.
//
// The frame layout is pinned in tools/protocheck/protocol.toml (transport.*
// constants); changing a field width here without updating the spec fails
// the protocheck gate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace reconfnet::transport {

// Frame-format constants, pinned by tools/protocheck/protocol.toml.
inline constexpr std::uint16_t kWireMagic = 0x5243;  // "RC"
inline constexpr std::uint8_t kWireVersion = 1;
/// Frame header: magic(2) + version(1) + kind(1) + sender round(8) +
/// epoch(8) + attempt(4) + payload length(4).
inline constexpr std::size_t kFrameHeaderBytes = 28;
inline constexpr std::uint64_t kFrameHeaderBits = kFrameHeaderBytes * 8;
/// One supernode-level sampler message on the wire: src(8) + dest(8) +
/// seq(4) + index(4) + is_request(1) + request(8 + 4) + response(8 + 4 + 1).
inline constexpr std::size_t kSuperMsgBytes = 50;

enum class MsgKind : std::uint8_t {
  kHeartbeat = 0,       ///< liveness + epoch position (pacer input)
  kCandidate = 1,       ///< sim round: candidate state + supernode outbox
  kStateBroadcast = 2,  ///< sync round: adopted state rebroadcast
  kSuper = 3,           ///< one forwarded supernode-level sampler message
  kAssign = 4,          ///< reorg A: node -> sampled supernode
  kNewGroup = 5,        ///< reorg B: fresh membership of one supernode
  kNeighborGroup = 6,   ///< reorg C: neighbor group forwarded to new members
  kTableFrag = 7,       ///< all-gather: partial new group table
  kCommitVote = 8,      ///< commit round: table-completeness vote
  kLookup = 9,          ///< DHT smoke: greedy bit-fixing lookup
  kLookupReply = 10,    ///< DHT smoke: home-group answer to the origin
};

/// A replicated sampler snapshot on the wire: the primitive-round counter
/// plus the raw multiset blocks. The receiver reconstructs the
/// HypercubeSamplerCore from (dimension, supernode, schedule) — all derivable
/// from the shared group table — via restore_blocks().
struct SamplerState {
  std::int32_t seq = 0;
  std::vector<std::vector<std::uint64_t>> blocks;

  bool operator==(const SamplerState&) const = default;
};

/// Mirror of dos/node_sim.cpp's supernode-level sampler message.
struct SuperMsg {
  std::uint64_t src = 0;
  std::uint64_t dest = 0;
  std::int32_t seq = 0;
  std::uint32_t index = 0;
  bool is_request = false;
  std::uint64_t req_requester = 0;
  std::int32_t req_j = 0;
  std::uint64_t resp_vertex = 0;
  std::int32_t resp_j = 0;
  bool resp_ok = false;

  bool operator==(const SuperMsg&) const = default;
};

/// One (supernode, members) entry of the all-gathered new group table.
struct TableEntry {
  std::uint64_t supernode = 0;
  std::vector<sim::NodeId> members;

  bool operator==(const TableEntry&) const = default;
};

/// Every protocol frame. `kind` selects which fields are meaningful (and
/// which the codec serializes); the rest stay default-initialized.
struct Message {
  MsgKind kind = MsgKind::kHeartbeat;
  sim::Round round = 0;       ///< sender's round when the frame was sent
  std::int64_t epoch = 0;     ///< reconfiguration epoch the frame belongs to
  std::int32_t attempt = 0;   ///< retry attempt within the epoch

  std::int64_t epoch_start = 0;           ///< heartbeat: epoch's first round
  std::uint64_t supernode = 0;            ///< state/assign/group/vote frames
  SamplerState state;                     ///< candidate / broadcast
  std::vector<SuperMsg> outbox;           ///< candidate
  SuperMsg super{};                       ///< super
  sim::NodeId assigned = sim::kNoNode;    ///< assign
  std::vector<sim::NodeId> group;         ///< new-group / neighbor-group
  std::vector<TableEntry> table;          ///< table fragment
  bool complete = false;                  ///< commit vote
  std::uint64_t key = 0;                  ///< lookup / reply
  sim::NodeId origin = sim::kNoNode;      ///< lookup / reply

  void clear();
  bool operator==(const Message&) const = default;
};

/// Exact serialized size of `msg` in bytes (header included) without
/// encoding. Used for communication-work accounting on both transports.
[[nodiscard]] std::size_t encoded_bytes(const Message& msg);

/// Serializes `msg` into `out` (resized to encoded_bytes(msg); capacity is
/// recycled, so the steady-state path allocates nothing once warm).
void encode(const Message& msg, std::vector<std::uint8_t>& out);

/// Serializes `msg` into `out`, which must be exactly encoded_bytes(msg)
/// long: the in-process hub encodes straight into its frame arena.
void encode_into(const Message& msg, std::span<std::uint8_t> out);

/// Parses one frame into `msg` (cleared first; nested vectors recycle their
/// capacity). Returns false on any malformed input — short buffer, bad
/// magic/version, truncated body, trailing bytes — leaving `msg`
/// unspecified but valid.
[[nodiscard]] bool decode(std::span<const std::uint8_t> bytes, Message& msg);

}  // namespace reconfnet::transport
