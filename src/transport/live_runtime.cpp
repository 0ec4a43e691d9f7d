#include "transport/live_runtime.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "dos/group_table.hpp"
#include "support/rng.hpp"
#include "transport/scenario.hpp"

namespace reconfnet::transport {
namespace {

/// Idle poll interval between socket pumps while waiting on a deadline.
/// Scaled to the round budget: with many processes per core, spinning
/// tighter than the budget warrants only starves the peers we are waiting
/// for.
std::int64_t idle_sleep_us(const PacerConfig& pacer) {
  return std::clamp<std::int64_t>(pacer.round_budget_us / 32, 300, 2'000);
}

/// Re-announce cadence for completion heartbeats: a lost heartbeat must not
/// stall peers for a whole round budget, but re-broadcasting to every peer
/// too eagerly floods the loopback during deadline stalls (n processes x
/// n-1 peers) and drowns the very announcements that keep pacers fed.
std::int64_t heartbeat_resend_us(const PacerConfig& pacer) {
  return std::max<std::int64_t>(pacer.round_budget_us / 2, 2'500);
}

}  // namespace

LiveNodeRuntime::LiveNodeRuntime(LiveConfig config, Clock* clock)
    : config_(std::move(config)), clock_(clock) {
  // Every process derives the identical initial configuration from
  // (dimension, nodes, table_seed) — the only shared state a deployment
  // needs besides the command line.
  std::vector<sim::NodeId> ids;
  ids.reserve(static_cast<std::size_t>(config_.nodes));
  for (int i = 0; i < config_.nodes; ++i) {
    ids.push_back(static_cast<sim::NodeId>(i));
  }
  support::Rng table_rng(config_.table_seed);
  dos::GroupTable initial =
      dos::GroupTable::random(config_.dimension, ids, table_rng);

  protocol_ = std::make_unique<NodeProtocol>(config_.self, std::move(initial),
                                             config_.protocol);
  mangler_ = std::make_unique<PacketMangler>(
      parse_plan(config_.plan_spec, config_.nodes, protocol_->epoch_rounds()),
      config_.fault_salt);
  if (config_.max_rounds <= 0) {
    // Worst case: every epoch burns its full retry budget, plus the smoke
    // phase and slack for resync jitter. Past this the run is declared
    // degraded and the process exits — it never wedges.
    config_.max_rounds =
        static_cast<sim::Round>(config_.protocol.epochs *
                                    config_.protocol.max_attempts +
                                1) *
            protocol_->epoch_rounds() +
        config_.dimension + 64;
  }

  UdpConfig udp;
  udp.self = config_.self;
  udp.nodes = config_.nodes;
  udp.base_port = config_.base_port;
  udp.incarnation = config_.incarnation;
  udp.mangler = mangler_.get();
  transport_ = std::make_unique<UdpTransport>(udp);
  pacer_ = std::make_unique<RoundPacer>(config_.pacer, clock_->now_us());
}

void LiveNodeRuntime::run_round(sim::Round round) {
  transport_->advance_round(round);
  transport_->poll(inbox_);
  const std::vector<sim::NodeId> dead = pacer_->evicted_peers();
  outbox_.clear();
  protocol_->on_round(round, inbox_, outbox_, dead);
  for (const auto& [to, msg] : outbox_.frames()) transport_->send(to, msg);
  // The peer set changes when an epoch commits a new table; re-declaring it
  // every round is cheap and keeps the pacer's liveness view current.
  peers_ = protocol_->peers();
  pacer_->set_peers(peers_);
}

bool LiveNodeRuntime::sends_settled() const {
  for (const sim::NodeId peer : peers_) {
    if (pacer_->evicted(peer)) continue;
    if (transport_->link(peer).pending() > 0) return false;
  }
  return true;
}

void LiveNodeRuntime::announce(sim::Round completed, std::int64_t now_us) {
  if (completed < 0) return;
  if (completed <= announced_ &&
      now_us - last_heartbeat_us_ < heartbeat_resend_us(config_.pacer)) {
    return;
  }
  Message beat;
  beat.kind = MsgKind::kHeartbeat;
  beat.round = completed;
  transport_->send(peers_, beat);
  heartbeats_sent_ += peers_.size();
  heartbeat_bits_ +=
      8ull * (kLinkHeaderBytes + encoded_bytes(beat)) * peers_.size();
  announced_ = std::max(announced_, completed);
  last_heartbeat_us_ = now_us;
}

int LiveNodeRuntime::run() {
  if (!transport_->open()) return kBindFailed;
  pacer_->set_peers(protocol_->peers());
  pacer_->begin_round(0, clock_->now_us());
  transport_->pump(clock_->now_us());  // stamp the transport's clock
  run_round(0);

  while (!protocol_->finished()) {
    const std::int64_t now = clock_->now_us();
    // Scripted crash-stop: the process genuinely dies at the plan's round
    // (the deploy script's SIGKILL is the backstop for wedged processes).
    if (mangler_->is_crashed(config_.self, round_)) {
      transport_->close();
      return kCrashedPerPlan;
    }
    transport_->pump(now);
    for (const sim::NodeId peer : peers_) {
      pacer_->note_frame(peer, transport_->round_heard(peer));
    }
    transport_->tick(now);

    // Completion barrier: announce this round once our reliable sends are
    // all acked; until then re-announce the previous round as a liveness
    // signal and keep the early-advance quorum gated off.
    const bool settled = sends_settled();
    announce(settled ? round_ : round_ - 1, now);

    const RoundPacer::Tick tick = pacer_->tick(now, /*early_ok=*/settled);
    if (!tick.advance) {
      sleep_us(idle_sleep_us(config_.pacer));
      continue;
    }
    // Whatever could not be delivered in time is lost for good, exactly as
    // the simulator loses it (crashed receivers, partition windows,
    // deadline-expired rounds) — retrying into later rounds would only
    // produce late frames the receiver rejects.
    transport_->cancel_stale(tick.next_round);
    round_ = tick.next_round;
    if (round_ >= config_.max_rounds) {
      transport_->close();
      return kRoundCapHit;
    }
    run_round(round_);
    pacer_->begin_round(round_, clock_->now_us());
  }

  // Linger: peers may still need retransmissions of our final table
  // fragments, and our completion heartbeats keep their pacers moving.
  // Bounded, then a clean exit.
  const std::int64_t linger_end = clock_->now_us() + config_.linger_us;
  while (clock_->now_us() < linger_end) {
    const std::int64_t now = clock_->now_us();
    transport_->pump(now);
    transport_->tick(now);
    announce(sends_settled() ? round_ : round_ - 1, now);
    sleep_us(1'000);
  }
  transport_->close();
  return kFinished;
}

runtime::Json LiveNodeRuntime::metrics_json(int exit_code) const {
  const NodeProtocol::Metrics& m = protocol_->metrics();
  const UdpTransport::Counters& t = transport_->counters();
  const ReliableLink::Counters links = transport_->link_totals();
  const RoundPacer::Counters& p = pacer_->counters();

  runtime::Json out;
  out["schema"] = "reconfnet-node-v1";
  out["node"] = static_cast<std::int64_t>(config_.self);
  out["nodes"] = static_cast<std::int64_t>(config_.nodes);
  out["dimension"] = static_cast<std::int64_t>(config_.dimension);
  out["plan"] = canonical_plan_name(config_.plan_spec);
  out["exit_code"] = static_cast<std::int64_t>(exit_code);
  out["finished"] = m.finished;
  out["last_round"] = static_cast<std::int64_t>(round_);

  runtime::Json protocol;
  protocol["epochs_completed"] = m.epochs_completed;
  protocol["epochs_failed"] = m.epochs_failed;
  protocol["attempts"] = m.attempts;
  protocol["fallbacks"] = m.fallbacks;
  protocol["resyncs"] = m.resyncs;
  protocol["sample_shortages"] = m.sample_shortages;
  protocol["doomed_attempts"] = m.doomed_attempts;
  protocol["knowledge_epochs"] = m.knowledge_epochs;
  protocol["rounds_total"] = m.rounds_total;
  protocol["frames_sent"] = static_cast<std::int64_t>(m.frames_sent);
  protocol["frames_received"] = static_cast<std::int64_t>(m.frames_received);
  protocol["bits_sent"] = static_cast<std::int64_t>(m.bits_sent);
  protocol["bits_received"] = static_cast<std::int64_t>(m.bits_received);
  protocol["stale_frames"] = static_cast<std::int64_t>(m.stale_frames);
  protocol["lookup_ok"] = m.lookup_ok;
  out["protocol"] = std::move(protocol);

  runtime::Json transport;
  transport["datagrams_sent"] = static_cast<std::int64_t>(t.datagrams_sent);
  transport["datagrams_received"] =
      static_cast<std::int64_t>(t.datagrams_received);
  transport["mangled"] = static_cast<std::int64_t>(t.mangled);
  transport["send_errors"] = static_cast<std::int64_t>(t.send_errors);
  transport["acks_sent"] = static_cast<std::int64_t>(t.acks_sent);
  transport["late_frames"] = static_cast<std::int64_t>(t.late_frames);
  transport["decode_failures"] =
      static_cast<std::int64_t>(t.decode_failures);
  transport["heartbeats_received"] =
      static_cast<std::int64_t>(t.heartbeats_received);
  transport["heartbeats_sent"] = static_cast<std::int64_t>(heartbeats_sent_);
  transport["heartbeat_bits"] = static_cast<std::int64_t>(heartbeat_bits_);
  out["transport"] = std::move(transport);

  runtime::Json link;
  link["staged"] = static_cast<std::int64_t>(links.staged);
  link["retransmits"] = static_cast<std::int64_t>(links.retransmits);
  link["acked"] = static_cast<std::int64_t>(links.acked);
  link["abandoned"] = static_cast<std::int64_t>(links.abandoned);
  link["canceled"] = static_cast<std::int64_t>(links.canceled);
  link["delivered"] = static_cast<std::int64_t>(links.delivered);
  link["duplicates"] = static_cast<std::int64_t>(links.duplicates);
  link["stale_incarnation"] =
      static_cast<std::int64_t>(links.stale_incarnation);
  out["link"] = std::move(link);

  runtime::Json pacer;
  pacer["deadline_advances"] =
      static_cast<std::int64_t>(p.deadline_advances);
  pacer["early_advances"] = static_cast<std::int64_t>(p.early_advances);
  pacer["resyncs"] = static_cast<std::int64_t>(p.resyncs);
  pacer["evictions"] = static_cast<std::int64_t>(p.evictions);
  pacer["rejoins"] = static_cast<std::int64_t>(p.rejoins);
  out["pacer"] = std::move(pacer);

  return out;
}

}  // namespace reconfnet::transport
