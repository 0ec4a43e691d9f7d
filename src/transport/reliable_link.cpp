#include "transport/reliable_link.hpp"

#include <utility>

namespace reconfnet::transport {

std::uint32_t ReliableLink::stage(std::span<const std::uint8_t> payload,
                                  std::int64_t now_us, std::int64_t tag) {
  Outgoing out;
  out.tag = tag;
  out.datagram.reserve(kLinkHeaderBytes + payload.size());
  encode_link_header(
      {LinkOp::kReliable, self_, incarnation_, sender_.next_seq()},
      out.datagram);
  out.datagram.insert(out.datagram.end(), payload.begin(), payload.end());
  ++counters_.staged;
  return sender_.add(std::move(out), now_us);
}

void ReliableLink::on_ack(std::uint32_t seq, std::uint32_t incarnation) {
  if (incarnation != incarnation_) {
    // An ack addressed to a previous life of this process; our fresh
    // sequence space must not be consumed by it.
    ++counters_.stale_incarnation;
    return;
  }
  if (sender_.ack(seq)) ++counters_.acked;
}

std::size_t ReliableLink::cancel_stale(std::int64_t before_tag) {
  const std::size_t dropped = sender_.drop_if(
      [&](const Outgoing& out) { return out.tag < before_tag; });
  counters_.canceled += dropped;
  return dropped;
}

bool ReliableLink::on_data(std::uint32_t seq, std::uint32_t incarnation) {
  if (incarnation < peer_incarnation_) {
    ++counters_.stale_incarnation;
    return false;  // no ack: the sender of this datagram is gone
  }
  if (incarnation > peer_incarnation_) {
    // The peer restarted: new sequence space, fresh dedup state.
    peer_incarnation_ = incarnation;
    delivered_.reset();
  }
  ack_queue_.push_back(seq);
  if (!delivered_.accept(seq)) {
    ++counters_.duplicates;
    return false;
  }
  ++counters_.delivered;
  return true;
}

}  // namespace reconfnet::transport
