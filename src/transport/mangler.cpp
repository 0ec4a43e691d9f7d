#include "transport/mangler.hpp"

#include "support/rng.hpp"

namespace reconfnet::transport {

PacketMangler::PacketMangler(fault::FaultPlan plan, std::uint64_t salt)
    : plan_(std::move(plan)), salt_(salt) {}

bool PacketMangler::drop(sim::NodeId from, sim::NodeId to, sim::Round round,
                         std::uint32_t attempt) {
  ++counters_.offered;
  // Same endpoint rule as FaultInjector::on_message: the sender must be up
  // in the sending round, the receiver in the delivery round.
  if (is_crashed(from, round) || is_crashed(to, round + 1)) {
    ++counters_.crash_drops;
    return true;
  }
  if (partitioned(from, to, round)) {
    ++counters_.partition_drops;
    return true;
  }
  if (plan_.loss > 0.0) {
    // Fresh pure draw per transmission attempt: a retransmitted datagram is
    // a new coin, so reliable links converge under loss.
    const std::uint64_t key =
        (from << 1) ^ (to * 0x9E3779B97F4A7C15ULL) ^
        (static_cast<std::uint64_t>(round) << 32) ^ attempt;
    if (support::hash_unit(salt_ ^ 0x105Eull, key, attempt) < plan_.loss) {
      ++counters_.lost;
      return true;
    }
  }
  return false;
}

bool PacketMangler::is_crashed(sim::NodeId node, sim::Round tick) const {
  return plan_.scripted_crash(node, tick);
}

bool PacketMangler::partitioned(sim::NodeId a, sim::NodeId b,
                                sim::Round tick) const {
  // Deployments use id-threshold cuts so the side assignment is identical
  // across processes and across transports; salted-hash cuts fall back to
  // the deployment salt (which differs from the injector's rng-derived salt,
  // so cross-transport comparisons should prefer id_below).
  return plan_.partitioned(a, b, tick, salt_);
}

}  // namespace reconfnet::transport
