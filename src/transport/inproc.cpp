#include "transport/inproc.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "support/rng.hpp"

namespace reconfnet::transport {
namespace {

/// How far poll() prefetches ahead in an inbox.
constexpr std::size_t kPrefetchFrames = 4;

}  // namespace

Frame FrameArena::allocate(std::size_t size) {
  if (size > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("frame longer than the wire's length field");
  }
  if (open_ == 0 || used_ + size > chunks_[open_ - 1].capacity) {
    // Next chunk: recycled when the arena already has one large enough.
    if (open_ == chunks_.size() || chunks_[open_].capacity < size) {
      const std::size_t capacity = std::max(kChunkBytes, size);
      // reconfnet-hotcheck: allow(RNH401) chunk growth, up to the arena's peak round; chunks are recycled after that
      Chunk chunk{std::unique_ptr<std::uint8_t[]>(new std::uint8_t[capacity]),
                  capacity};
      if (open_ == chunks_.size()) {
        chunks_.push_back(std::move(chunk));
      } else {
        chunks_[open_] = std::move(chunk);
      }
    }
    ++open_;
    used_ = 0;
  }
  const Frame frame{static_cast<std::uint32_t>(open_ - 1),
                    static_cast<std::uint32_t>(used_),
                    static_cast<std::uint32_t>(size)};
  used_ += size;
  return frame;
}

void InprocTransport::send(std::span<const sim::NodeId> to,
                           const Message& msg) {
  // Heartbeats carry no protocol content and the lockstep driver needs no
  // liveness signal; the protocol meters them, the hub skips them.
  if (msg.kind == MsgKind::kHeartbeat) return;
  counters_.datagrams_sent += hub_->send(self_, to, msg);
}

void InprocTransport::poll(std::vector<sim::Envelope<Message>>& out) {
  const std::span<const sim::Envelope<Frame>> inbox = hub_->inbox(self_);
  // Decode into the entries `out` already holds: their nested vectors keep
  // their capacity from the rounds before.
  if (out.size() < inbox.size()) out.resize(inbox.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < inbox.size(); ++i) {
    // An inbox interleaves the frames of every sender, so its bytes are
    // scattered over the arena: fetch a few frames ahead, at both ends (a
    // 78-byte super frame spans two cache lines).
    if (i + kPrefetchFrames < inbox.size()) {
      const auto ahead = hub_->bytes(inbox[i + kPrefetchFrames].payload);
      __builtin_prefetch(ahead.data());
      __builtin_prefetch(ahead.data() + ahead.size() - 1);
    }
    auto& frame = out[kept];
    frame.from = inbox[i].from;
    frame.to = self_;
    if (!decode(hub_->bytes(inbox[i].payload), frame.payload)) {
      ++counters_.decode_failures;
      continue;
    }
    ++counters_.datagrams_received;
    ++kept;
  }
  out.resize(kept);
}

InprocDeployment::InprocDeployment(InprocDeploymentConfig config)
    : config_(config), hub_(config.plan, config.fault_salt) {
  std::vector<sim::NodeId> ids;
  ids.reserve(static_cast<std::size_t>(config_.nodes));
  for (int i = 0; i < config_.nodes; ++i) {
    ids.push_back(static_cast<sim::NodeId>(i));
  }
  support::Rng table_rng(config_.table_seed);
  initial_table_ = std::make_shared<const dos::GroupTable>(
      dos::GroupTable::random(config_.dimension, ids, table_rng));
  protocols_.reserve(ids.size());
  endpoints_.reserve(ids.size());
  for (const sim::NodeId id : ids) {
    protocols_.push_back(std::make_unique<NodeProtocol>(
        id, initial_table_, config_.protocol));
    endpoints_.push_back(std::make_unique<InprocTransport>(&hub_, id));
  }
}

InprocDeployment::Report InprocDeployment::run() {
  Report report;
  const auto n = static_cast<std::size_t>(config_.nodes);
  std::vector<sim::NodeId> dead;  // crash-stop nodes, sorted
  std::vector<sim::Envelope<Message>> inbox;  // poll() replaces its contents
  NodeProtocol::Outbox outbox;

  for (sim::Round round = 0; round < config_.max_rounds; ++round) {
    // Crash-stop nodes are dead for good; nodes inside a (crash, restart)
    // window sit the rounds out and reboot with a fresh protocol instance —
    // initial configuration, no memory — once the window closes.
    dead.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<sim::NodeId>(i);
      if (config_.plan.crash_stopped(id, round)) dead.push_back(id);
    }
    bool all_live_done = true;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<sim::NodeId>(i);
      if (hub_.mangler().is_crashed(id, round)) continue;
      if (round > 0 && hub_.mangler().is_crashed(id, round - 1)) {
        protocols_[i] = std::make_unique<NodeProtocol>(
            id, initial_table_, config_.protocol);
      }
      endpoints_[i]->poll(inbox);
      outbox.clear();
      const bool running =
          protocols_[i]->on_round(round, inbox, outbox, dead);
      for (const auto& [to, msg] : outbox.frames()) {
        endpoints_[i]->send(to, msg);
      }
      if (running) all_live_done = false;
    }
    hub_.step();
    report.rounds = round + 1;
    if (all_live_done) {
      report.all_live_finished = true;
      break;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (config_.plan.crash_stopped(static_cast<sim::NodeId>(i),
                                   report.rounds)) {
      ++report.crashed_forever;
      continue;
    }
    if (protocols_[i]->finished()) ++report.finished;
  }
  return report;
}

}  // namespace reconfnet::transport
