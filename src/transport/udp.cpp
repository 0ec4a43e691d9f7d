#include "transport/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace reconfnet::transport {
namespace {

constexpr std::size_t kMaxDatagram = 65536;

sockaddr_in peer_address(std::uint16_t base_port, sim::NodeId id) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port =
      htons(static_cast<std::uint16_t>(base_port + static_cast<int>(id)));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

UdpTransport::UdpTransport(UdpConfig config) : config_(config) {
  links_.reserve(static_cast<std::size_t>(config_.nodes));
  heard_.assign(static_cast<std::size_t>(config_.nodes), -1);
  for (int i = 0; i < config_.nodes; ++i) {
    links_.push_back(
        std::make_unique<ReliableLink>(config_.self, config_.incarnation));
  }
  recv_scratch_.resize(kMaxDatagram);
}

UdpTransport::~UdpTransport() { close(); }

bool UdpTransport::open() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) return false;
  // Deep buffers: a process descheduled for tens of milliseconds (n
  // processes per core) must not shed the burst that arrived meanwhile —
  // every datagram lost here costs a retransmission round-trip. Best
  // effort: the kernel clamps to net.core.{r,w}mem_max silently.
  const int kSocketBufBytes = 4 * 1024 * 1024;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &kSocketBufBytes,
               sizeof(kSocketBufBytes));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &kSocketBufBytes,
               sizeof(kSocketBufBytes));
  sockaddr_in addr = peer_address(config_.base_port, config_.self);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close();
    return false;
  }
  return true;
}

void UdpTransport::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void UdpTransport::send(std::span<const sim::NodeId> to, const Message& msg) {
  // One encoding serves the whole list.
  encode(msg, encode_scratch_);
  const bool heartbeat = msg.kind == MsgKind::kHeartbeat;
  if (heartbeat) {
    // Fire-and-forget: one link header, no channel state.
    encode_link_header(
        {LinkOp::kUnreliable, config_.self, config_.incarnation, 0},
        dgram_scratch_);
    dgram_scratch_.insert(dgram_scratch_.end(), encode_scratch_.begin(),
                          encode_scratch_.end());
  }
  for (const sim::NodeId dest : to) {
    if (dest == config_.self) {
      // Loopback to ourselves without touching the socket: stage directly.
      sim::Envelope<Message> frame;
      frame.from = config_.self;
      frame.to = config_.self;
      frame.payload = msg;
      staged_[msg.round].push_back(std::move(frame));
      continue;
    }
    if (dest >= static_cast<sim::NodeId>(config_.nodes)) continue;
    if (heartbeat) {
      transmit(dest, dgram_scratch_, /*attempt=*/0, msg.round);
      continue;
    }
    // Reliable frames transmit inline, BEFORE the round's trailing
    // heartbeat hits the wire — loopback preserves per-pair datagram order,
    // so a peer whose pacer advances on our heartbeat has already received
    // the data frames; tick() then only handles retransmissions. The
    // frame's round rides along as the link tag so every (re)transmission's
    // fault-plan decision is pure in the ORIGINAL send round — a
    // partition-dropped frame stays dropped, exactly like the in-process
    // injector.
    ReliableLink& link = *links_[static_cast<std::size_t>(dest)];
    link.stage(encode_scratch_, now_us_, msg.round);
    link.for_due(now_us_,
                 [&](std::span<const std::uint8_t> bytes,
                     std::uint32_t attempt, std::int64_t send_round) {
                   transmit(dest, bytes, attempt, send_round);
                 });
  }
}

void UdpTransport::poll(std::vector<sim::Envelope<Message>>& out) {
  // Bus contract: a frame sent in round r is delivered in round r+1's inbox
  // or never. Only the immediately preceding round's stage is released;
  // anything older missed its window (we advanced before it landed) and is
  // dropped as late rather than injected into the wrong round.
  out.clear();
  while (!staged_.empty() && staged_.begin()->first <= round_ - 1) {
    auto& frames = staged_.begin()->second;
    if (staged_.begin()->first == round_ - 1) {
      // reconfnet-hotcheck: allow(RNH404) out is the protocol's recycled inbox; frames per round are O(log n), not per-datagram
      for (auto& frame : frames) out.push_back(std::move(frame));
    } else {
      counters_.late_frames += frames.size();
    }
    // reconfnet-hotcheck: allow(RNH403) one stage release per round, keyed by sparse sender rounds — not a per-datagram walk
    staged_.erase(staged_.begin());
  }
}

void UdpTransport::advance_round(sim::Round round) { round_ = round; }

void UdpTransport::pump(std::int64_t now_us) {
  now_us_ = now_us;
  if (fd_ < 0) return;
  for (;;) {
    const ssize_t got = ::recvfrom(fd_, recv_scratch_.data(),
                                   recv_scratch_.size(), 0, nullptr, nullptr);
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      break;
    }
    (void)on_datagram(
        std::span<const std::uint8_t>(recv_scratch_.data(),
                                      static_cast<std::size_t>(got)),
        now_us);
  }
}

bool UdpTransport::on_datagram(std::span<const std::uint8_t> bytes,
                               std::int64_t now_us) {
  (void)now_us;
  LinkHeader header;
  if (!decode_link_header(bytes, header)) {
    ++counters_.decode_failures;
    return false;
  }
  if (header.from >= static_cast<sim::NodeId>(config_.nodes) ||
      header.from == config_.self) {
    ++counters_.decode_failures;
    return false;
  }
  ++counters_.datagrams_received;
  const auto peer = static_cast<std::size_t>(header.from);
  const auto payload = bytes.subspan(kLinkHeaderBytes);

  if (header.op == LinkOp::kAck) {
    links_[peer]->on_ack(header.seq, header.incarnation);
    return true;
  }
  // Decode before the link sees a reliable datagram: an unreadable copy
  // must be neither acked nor marked delivered, so the sender retransmits.
  if (!decode(payload, decode_scratch_)) {
    ++counters_.decode_failures;
    return false;
  }
  if (header.op == LinkOp::kReliable &&
      !links_[peer]->on_data(header.seq, header.incarnation)) {
    return true;  // duplicate or stale incarnation; already counted
  }
  if (decode_scratch_.kind == MsgKind::kHeartbeat) {
    // A heartbeat announces the sender COMPLETED its round (all its
    // reliable sends acked) — only these drive the pacer, so hearing round
    // r from a peer proves its round-r frames are already staged here.
    // Liveness only — no staging, no allocation (the hot path).
    heard_[peer] = std::max(heard_[peer], decode_scratch_.round);
    ++counters_.heartbeats_received;
    return true;
  }
  if (decode_scratch_.round < round_ - 1) {
    ++counters_.late_frames;
    return true;
  }
  sim::Envelope<Message> frame;
  frame.from = header.from;
  frame.to = config_.self;
  frame.payload = std::move(decode_scratch_);
  decode_scratch_.clear();
  // reconfnet-hotcheck: allow(RNH403) protocol frames only — heartbeats (the per-datagram hot path) returned above, allocation-free
  staged_[frame.payload.round].push_back(std::move(frame));
  return true;
}

void UdpTransport::tick(std::int64_t now_us) {
  now_us_ = now_us;
  for (int i = 0; i < config_.nodes; ++i) {
    if (i == static_cast<int>(config_.self)) continue;
    const auto to = static_cast<sim::NodeId>(i);
    ReliableLink& link = *links_[static_cast<std::size_t>(i)];
    link.drain_acks([&](std::uint32_t seq) { send_ack(to, seq); });
    link.for_due(now_us,
                 [&](std::span<const std::uint8_t> bytes,
                     std::uint32_t attempt, std::int64_t send_round) {
                   transmit(to, bytes, attempt, send_round);
                 });
  }
}

void UdpTransport::cancel_stale(sim::Round round) {
  for (int i = 0; i < config_.nodes; ++i) {
    if (i == static_cast<int>(config_.self)) continue;
    links_[static_cast<std::size_t>(i)]->cancel_stale(round);
  }
}

sim::Round UdpTransport::round_heard(sim::NodeId peer) const {
  const auto index = static_cast<std::size_t>(peer);
  return index < heard_.size() ? heard_[index] : -1;
}

ReliableLink::Counters UdpTransport::link_totals() const {
  ReliableLink::Counters total;
  for (int i = 0; i < config_.nodes; ++i) {
    if (i == static_cast<int>(config_.self)) continue;
    const auto& c = links_[static_cast<std::size_t>(i)]->counters();
    total.staged += c.staged;
    total.retransmits += c.retransmits;
    total.acked += c.acked;
    total.abandoned += c.abandoned;
    total.canceled += c.canceled;
    total.delivered += c.delivered;
    total.duplicates += c.duplicates;
    total.stale_incarnation += c.stale_incarnation;
  }
  return total;
}

void UdpTransport::transmit(sim::NodeId to,
                            std::span<const std::uint8_t> bytes,
                            std::uint32_t attempt, sim::Round send_round) {
  if (config_.mangler != nullptr &&
      config_.mangler->drop(config_.self, to, send_round, attempt)) {
    ++counters_.mangled;
    return;
  }
  if (fd_ < 0) return;
  const sockaddr_in addr = peer_address(config_.base_port, to);
  const ssize_t sent =
      ::sendto(fd_, bytes.data(), bytes.size(), 0,
               reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (sent < 0) {
    ++counters_.send_errors;
    return;
  }
  ++counters_.datagrams_sent;
}

void UdpTransport::send_ack(sim::NodeId to, std::uint32_t seq) {
  encode_link_header(
      {LinkOp::kAck, config_.self,
       links_[static_cast<std::size_t>(to)]->peer_incarnation(), seq},
      dgram_scratch_);
  ++counters_.acks_sent;
  transmit(to, dgram_scratch_, /*attempt=*/0, round_);
}

}  // namespace reconfnet::transport
