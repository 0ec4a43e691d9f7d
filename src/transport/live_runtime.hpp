// One live node: UDP transport + round pacer + protocol, composed into the
// process that tools/reconfnet_node.cpp runs (DESIGN.md §15).
//
// The loop is: pump the socket, feed heard completion announcements to the
// pacer, run the reliable channels, and announce our own round as complete
// once every reliable frame we sent in it is acked — peers advance on that
// announcement, which makes the pacer quorum a delivery barrier (live
// rounds see exactly the frames the synchronous simulator would deliver).
// When the pacer says advance, the next protocol round executes and its
// frames go out; a deadline-forced advance first cancels undelivered
// frames, reproducing the simulator's permanent drop. Crash events of the
// fault plan
// that name this node make the process exit at the scripted round —
// crash-stop is a real process death, the deploy script's SIGKILL is the
// backstop — and a hard round cap bounds every run: a deployment can
// degrade (fallbacks, evictions, isolated stragglers) but never wedge.
// After finishing, the node lingers briefly — heartbeating and serving
// retransmissions — so stragglers can still complete, then exits cleanly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/json.hpp"
#include "sim/types.hpp"
#include "transport/clock.hpp"
#include "transport/mangler.hpp"
#include "transport/node_protocol.hpp"
#include "transport/pacer.hpp"
#include "transport/udp.hpp"

namespace reconfnet::transport {

struct LiveConfig {
  sim::NodeId self = 0;
  int nodes = 64;
  int dimension = 3;
  std::uint64_t table_seed = 1;
  NodeProtocol::Config protocol{};
  PacerConfig pacer{};
  std::uint16_t base_port = 47000;
  std::uint32_t incarnation = 0;
  std::string plan_spec = "none";
  std::uint64_t fault_salt = 0x7261ull;
  /// 0 = derive from epochs * max_attempts plus smoke and slack.
  sim::Round max_rounds = 0;
  std::int64_t linger_us = 500'000;
};

class LiveNodeRuntime {
 public:
  enum ExitCode : int {
    kFinished = 0,
    kRoundCapHit = 1,     ///< degraded but bounded — never a hang
    kCrashedPerPlan = 2,  ///< scripted crash-stop executed
    kBindFailed = 3,
  };

  LiveNodeRuntime(LiveConfig config, Clock* clock);

  /// Runs the node to completion; returns an ExitCode.
  int run();

  /// Per-node metrics for the deploy harvester, valid after run().
  [[nodiscard]] runtime::Json metrics_json(int exit_code) const;

  [[nodiscard]] const NodeProtocol& protocol() const { return *protocol_; }
  [[nodiscard]] sim::Round round() const { return round_; }

 private:
  void run_round(sim::Round round);
  /// True iff every reliable frame toward a non-evicted peer is acked.
  [[nodiscard]] bool sends_settled() const;
  /// (Re)announces `completed` as our highest finished round: immediately
  /// when it is news, and on a short cadence otherwise so a lost heartbeat
  /// only stalls peers briefly. Negative rounds are never announced.
  void announce(sim::Round completed, std::int64_t now_us);

  LiveConfig config_;
  Clock* clock_;
  std::unique_ptr<PacketMangler> mangler_;
  std::unique_ptr<NodeProtocol> protocol_;
  std::unique_ptr<UdpTransport> transport_;
  std::unique_ptr<RoundPacer> pacer_;
  sim::Round round_ = 0;
  std::vector<sim::NodeId> peers_;  ///< protocol_->peers(), refreshed per round
  sim::Round announced_ = -1;       ///< highest completion heartbeat sent
  std::int64_t last_heartbeat_us_ = 0;
  std::uint64_t heartbeats_sent_ = 0;
  std::uint64_t heartbeat_bits_ = 0;
  std::vector<sim::Envelope<Message>> inbox_;
  NodeProtocol::Outbox outbox_;
};

}  // namespace reconfnet::transport
