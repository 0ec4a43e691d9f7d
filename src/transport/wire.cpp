#include "transport/wire.hpp"

#include <bit>
#include <cassert>
#include <cstring>

#include "transport/reliable_link.hpp"

namespace reconfnet::transport {
namespace {

// --- primitive little-endian stores and loads --------------------------------

/// `v` with its bytes in little-endian order: a no-op on little-endian hosts,
/// a byte swap on big-endian ones.
template <typename T>
T little_endian(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    T out = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out = static_cast<T>((out << 8) | (v & 0xFF));
      v = static_cast<T>(v >> 8);
    }
    return out;
  }
  return v;
}

/// Fixed-width stores into a buffer the caller sized exactly: each field is
/// one memcpy, with no bounds check and no growth.
class Writer {
 public:
  explicit Writer(std::uint8_t* out) : out_(out) {}

  void u8(std::uint8_t v) { *out_++ = v; }
  void u16(std::uint16_t v) { store(v); }
  void u32(std::uint32_t v) { store(v); }
  void u64(std::uint64_t v) { store(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// `count` consecutive u64 fields.
  void u64s(const std::uint64_t* values, std::size_t count) {
    if constexpr (std::endian::native == std::endian::little) {
      if (count != 0) std::memcpy(out_, values, count * 8);
      out_ += count * 8;
    } else {
      for (std::size_t i = 0; i < count; ++i) u64(values[i]);
    }
  }

  [[nodiscard]] const std::uint8_t* position() const { return out_; }

 private:
  template <typename T>
  void store(T v) {
    v = little_endian(v);
    std::memcpy(out_, &v, sizeof v);
    out_ += sizeof v;
  }

  std::uint8_t* out_;
};

/// Unchecked load of one field at `p`, which moves past it.
template <typename T>
T load(const std::uint8_t*& p) {
  T v = 0;
  std::memcpy(&v, p, sizeof v);
  p += sizeof v;
  return little_endian(v);
}

/// Bounds-checked fixed-width loads: a read past the end yields 0 and
/// latches !ok().
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  std::uint8_t u8() { return next<std::uint8_t>(); }
  std::uint16_t u16() { return next<std::uint16_t>(); }
  std::uint32_t u32() { return next<std::uint32_t>(); }
  std::uint64_t u64() { return next<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  /// The next `count` bytes, or nullptr when fewer remain: one bounds check
  /// for a fixed-size run of fields, read with load().
  const std::uint8_t* fixed(std::size_t count) {
    if (!ok_ || remaining() < count) {
      ok_ = false;
      return nullptr;
    }
    pos_ += count;
    return bytes_.data() + pos_ - count;
  }
  /// Reads `count` consecutive u64 fields into `out`.
  bool u64s(std::uint64_t* out, std::size_t count) {
    if (count > remaining() / 8) ok_ = false;
    const std::uint8_t* from = ok_ ? fixed(count * 8) : nullptr;
    if (from == nullptr) return false;
    if constexpr (std::endian::native == std::endian::little) {
      if (count != 0) std::memcpy(out, from, count * 8);
    } else {
      for (std::size_t i = 0; i < count; ++i) out[i] = load<std::uint64_t>(from);
    }
    return true;
  }

 private:
  template <typename T>
  T next() {
    const std::uint8_t* p = fixed(sizeof(T));
    return p == nullptr ? T{0} : load<T>(p);
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- kind-specific body sizes and codecs ------------------------------------

std::size_t state_bytes(const SamplerState& state) {
  std::size_t total = 4 + 1;  // seq + block count
  for (const auto& block : state.blocks) total += 4 + block.size() * 8;
  return total;
}

void write_state(Writer& w, const SamplerState& state) {
  w.i32(state.seq);
  w.u8(static_cast<std::uint8_t>(state.blocks.size()));
  for (const auto& block : state.blocks) {
    w.u32(static_cast<std::uint32_t>(block.size()));
    w.u64s(block.data(), block.size());
  }
}

bool read_state(Reader& r, SamplerState& state) {
  state.seq = r.i32();
  const std::size_t blocks = r.u8();
  // Recycle outer and inner capacity: shrink without deallocating, grow on
  // demand.
  if (state.blocks.size() > blocks) state.blocks.resize(blocks);
  while (state.blocks.size() < blocks) state.blocks.emplace_back();
  for (auto& block : state.blocks) {
    const std::size_t count = r.u32();
    if (!r.ok() || count > r.remaining() / 8) return false;
    block.resize(count);
    r.u64s(block.data(), count);
  }
  return r.ok();
}

void write_super(Writer& w, const SuperMsg& super) {
  w.u64(super.src);
  w.u64(super.dest);
  w.i32(super.seq);
  w.u32(super.index);
  w.u8(super.is_request ? 1 : 0);
  w.u64(super.req_requester);
  w.i32(super.req_j);
  w.u64(super.resp_vertex);
  w.i32(super.resp_j);
  w.u8(super.resp_ok ? 1 : 0);
}

bool read_super(Reader& r, SuperMsg& super) {
  const std::uint8_t* p = r.fixed(kSuperMsgBytes);
  if (p == nullptr) return false;
  super.src = load<std::uint64_t>(p);
  super.dest = load<std::uint64_t>(p);
  super.seq = static_cast<std::int32_t>(load<std::uint32_t>(p));
  super.index = load<std::uint32_t>(p);
  super.is_request = load<std::uint8_t>(p) != 0;
  super.req_requester = load<std::uint64_t>(p);
  super.req_j = static_cast<std::int32_t>(load<std::uint32_t>(p));
  super.resp_vertex = load<std::uint64_t>(p);
  super.resp_j = static_cast<std::int32_t>(load<std::uint32_t>(p));
  super.resp_ok = load<std::uint8_t>(p) != 0;
  return true;
}

void write_ids(Writer& w, const std::vector<sim::NodeId>& ids) {
  w.u32(static_cast<std::uint32_t>(ids.size()));
  w.u64s(ids.data(), ids.size());
}

bool read_ids(Reader& r, std::vector<sim::NodeId>& ids) {
  const std::size_t count = r.u32();
  if (!r.ok() || count > r.remaining() / 8) return false;
  ids.resize(count);
  return r.u64s(ids.data(), count);
}

std::size_t body_bytes(const Message& msg) {
  switch (msg.kind) {
    case MsgKind::kHeartbeat:
      return 8;  // epoch_start
    case MsgKind::kCandidate: {
      std::size_t total = 8 + state_bytes(msg.state) + 4;
      total += msg.outbox.size() * kSuperMsgBytes;
      return total;
    }
    case MsgKind::kStateBroadcast:
      return 8 + state_bytes(msg.state);
    case MsgKind::kSuper:
      return kSuperMsgBytes;
    case MsgKind::kAssign:
      return 8 + 8;  // supernode + assigned
    case MsgKind::kNewGroup:
    case MsgKind::kNeighborGroup:
      return 8 + 4 + msg.group.size() * 8;
    case MsgKind::kTableFrag: {
      std::size_t total = 4;
      for (const auto& entry : msg.table) total += 8 + 4 + entry.members.size() * 8;
      return total;
    }
    case MsgKind::kCommitVote:
      return 8 + 1;  // supernode + complete bit
    case MsgKind::kLookup:
      return 8 + 8 + 8;  // key + origin + home supernode
    case MsgKind::kLookupReply:
      return 8 + 8;  // key + origin
  }
  return 0;
}

}  // namespace

void Message::clear() {
  kind = MsgKind::kHeartbeat;
  round = 0;
  epoch = 0;
  attempt = 0;
  epoch_start = 0;
  supernode = 0;
  state.seq = 0;
  for (auto& block : state.blocks) block.clear();
  state.blocks.clear();
  outbox.clear();
  super = SuperMsg{};
  assigned = sim::kNoNode;
  group.clear();
  table.clear();
  complete = false;
  key = 0;
  origin = sim::kNoNode;
}

std::size_t encoded_bytes(const Message& msg) {
  return kFrameHeaderBytes + body_bytes(msg);
}

void encode(const Message& msg, std::vector<std::uint8_t>& out) {
  out.resize(encoded_bytes(msg));
  encode_into(msg, out);
}

void encode_into(const Message& msg, std::span<std::uint8_t> out) {
  Writer w(out.data());
  w.u16(kWireMagic);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(msg.kind));
  w.i64(msg.round);
  w.i64(msg.epoch);
  w.i32(msg.attempt);
  w.u32(static_cast<std::uint32_t>(out.size() - kFrameHeaderBytes));
  switch (msg.kind) {
    case MsgKind::kHeartbeat:
      w.i64(msg.epoch_start);
      break;
    case MsgKind::kCandidate:
      w.u64(msg.supernode);
      write_state(w, msg.state);
      w.u32(static_cast<std::uint32_t>(msg.outbox.size()));
      for (const auto& super : msg.outbox) write_super(w, super);
      break;
    case MsgKind::kStateBroadcast:
      w.u64(msg.supernode);
      write_state(w, msg.state);
      break;
    case MsgKind::kSuper:
      write_super(w, msg.super);
      break;
    case MsgKind::kAssign:
      w.u64(msg.supernode);
      w.u64(msg.assigned);
      break;
    case MsgKind::kNewGroup:
    case MsgKind::kNeighborGroup:
      w.u64(msg.supernode);
      write_ids(w, msg.group);
      break;
    case MsgKind::kTableFrag:
      w.u32(static_cast<std::uint32_t>(msg.table.size()));
      for (const auto& entry : msg.table) {
        w.u64(entry.supernode);
        write_ids(w, entry.members);
      }
      break;
    case MsgKind::kCommitVote:
      w.u64(msg.supernode);
      w.u8(msg.complete ? 1 : 0);
      break;
    case MsgKind::kLookup:
      w.u64(msg.key);
      w.u64(msg.origin);
      w.u64(msg.supernode);
      break;
    case MsgKind::kLookupReply:
      w.u64(msg.key);
      w.u64(msg.origin);
      break;
  }
  assert(w.position() == out.data() + out.size());
}

bool decode(std::span<const std::uint8_t> bytes, Message& msg) {
  msg.clear();
  Reader r(bytes);
  const std::uint8_t* header = r.fixed(kFrameHeaderBytes);
  if (header == nullptr) return false;
  if (load<std::uint16_t>(header) != kWireMagic) return false;
  if (load<std::uint8_t>(header) != kWireVersion) return false;
  const std::uint8_t kind = load<std::uint8_t>(header);
  if (kind > static_cast<std::uint8_t>(MsgKind::kLookupReply)) return false;
  msg.kind = static_cast<MsgKind>(kind);
  msg.round = static_cast<sim::Round>(load<std::uint64_t>(header));
  msg.epoch = static_cast<std::int64_t>(load<std::uint64_t>(header));
  msg.attempt = static_cast<std::int32_t>(load<std::uint32_t>(header));
  const std::size_t body = load<std::uint32_t>(header);
  if (body != r.remaining()) return false;
  switch (msg.kind) {
    case MsgKind::kHeartbeat:
      msg.epoch_start = r.i64();
      break;
    case MsgKind::kCandidate: {
      msg.supernode = r.u64();
      if (!read_state(r, msg.state)) return false;
      const std::size_t count = r.u32();
      if (!r.ok() || count > r.remaining() / kSuperMsgBytes) return false;
      msg.outbox.resize(count);
      for (auto& super : msg.outbox) {
        if (!read_super(r, super)) return false;
      }
      break;
    }
    case MsgKind::kStateBroadcast:
      msg.supernode = r.u64();
      if (!read_state(r, msg.state)) return false;
      break;
    case MsgKind::kSuper:
      if (!read_super(r, msg.super)) return false;
      break;
    case MsgKind::kAssign:
      msg.supernode = r.u64();
      msg.assigned = r.u64();
      break;
    case MsgKind::kNewGroup:
    case MsgKind::kNeighborGroup:
      msg.supernode = r.u64();
      if (!read_ids(r, msg.group)) return false;
      break;
    case MsgKind::kTableFrag: {
      const std::size_t count = r.u32();
      if (!r.ok() || count > r.remaining() / 12) return false;
      msg.table.resize(count);
      for (auto& entry : msg.table) {
        entry.supernode = r.u64();
        if (!read_ids(r, entry.members)) return false;
      }
      break;
    }
    case MsgKind::kCommitVote:
      msg.supernode = r.u64();
      msg.complete = r.u8() != 0;
      break;
    case MsgKind::kLookup:
      msg.key = r.u64();
      msg.origin = r.u64();
      msg.supernode = r.u64();
      break;
    case MsgKind::kLookupReply:
      msg.key = r.u64();
      msg.origin = r.u64();
      break;
  }
  return r.ok() && r.remaining() == 0;
}

// --- link header (reliable_link.hpp) -----------------------------------------

void encode_link_header(const LinkHeader& header,
                        std::vector<std::uint8_t>& out) {
  out.resize(kLinkHeaderBytes);
  Writer w(out.data());
  w.u16(kLinkMagic);
  w.u8(kLinkVersion);
  w.u8(static_cast<std::uint8_t>(header.op));
  w.u64(header.from);
  w.u32(header.incarnation);
  w.u32(header.seq);
}

bool decode_link_header(std::span<const std::uint8_t> bytes,
                        LinkHeader& header) {
  Reader r(bytes);
  const std::uint16_t magic = r.u16();
  const std::uint8_t version = r.u8();
  const std::uint8_t op = r.u8();
  header.from = r.u64();
  header.incarnation = r.u32();
  header.seq = r.u32();
  if (!r.ok() || magic != kLinkMagic || version != kLinkVersion ||
      op > static_cast<std::uint8_t>(LinkOp::kAck)) {
    return false;
  }
  header.op = static_cast<LinkOp>(op);
  return true;
}

}  // namespace reconfnet::transport
