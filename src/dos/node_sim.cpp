#include "dos/node_sim.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "sampling/hypercube_sampler.hpp"
#include "sim/metrics.hpp"

namespace reconfnet::dos {
namespace {

using Core = sampling::HypercubeSamplerCore;

/// A frozen supernode state after `seq` primitive rounds.
struct Snapshot {
  Core core;
  int seq;
  Snapshot(Core state, int sequence)
      : core(std::move(state)), seq(sequence) {}
};
using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// One supernode-level sampler message, tagged for deduplication (every
/// available group member forwards every message, so receivers see up to
/// |R(x)| identical copies).
struct SuperMsg {
  std::uint64_t src = 0;
  std::uint64_t dest = 0;
  int seq = 0;
  std::uint32_t index = 0;
  bool is_request = false;
  Core::Request request{};
  Core::Response response{};
};
using OutboxPtr = std::shared_ptr<const std::vector<SuperMsg>>;

struct WireMsg {
  enum class Kind {
    kCandidate,
    kStateBroadcast,
    kSuper,
    kAssign,
    kNewGroup,
    kNeighborGroup,
  };
  Kind kind = Kind::kStateBroadcast;
  // reconfnet-protocheck: allow(RNP307) shared immutable snapshot stands in
  // for a serialized state of state_bits(...) bits, charged at every send
  SnapshotPtr state;                   // candidate / broadcast
  // reconfnet-protocheck: allow(RNP307) shared immutable outbox models the
  // forwarded supernode messages, charged as outbox size * super_bits
  OutboxPtr outbox;                    // candidate
  SuperMsg super{};                    // super
  sim::NodeId assigned = sim::kNoNode; // assign
  std::uint64_t supernode = 0;         // assign / new-group / neighbor-group
  // reconfnet-protocheck: allow(RNP307) shared immutable member list models
  // a group_bits(size)-bit membership broadcast, charged at every send
  std::shared_ptr<const std::vector<sim::NodeId>> group;  // new/neighbor
};

/// Advances a supernode state by one primitive round. Odd seq = request
/// phase (accept last responses, emit this iteration's requests); even seq =
/// response phase (serve requests, discard consumed blocks). seq 2I+1 only
/// accepts the final responses.
std::pair<Snapshot, std::vector<SuperMsg>> advance(
    const Snapshot& prev, std::span<const SuperMsg> incoming,
    int total_iterations, support::Rng& rng) {
  Snapshot next{prev.core, prev.seq + 1};
  std::vector<SuperMsg> outbox;
  const int seq = next.seq;
  const std::uint64_t self = next.core.self();
  std::uint32_t index = 0;
  if (seq % 2 == 1) {
    // Request phase of iteration (seq+1)/2.
    for (const auto& msg : incoming) {
      if (!msg.is_request) next.core.accept(msg.response, rng);
    }
    const int iteration = (seq + 1) / 2;
    if (iteration <= total_iterations) {
      for (auto& [dest, request] : next.core.make_requests(iteration, rng)) {
        outbox.push_back(
            {self, dest, seq, index++, true, request, {}});
      }
    }
  } else {
    // Response phase of iteration seq/2.
    const int iteration = seq / 2;
    for (const auto& msg : incoming) {
      if (msg.is_request) {
        const auto response = next.core.serve(msg.request, iteration, rng);
        outbox.push_back({self, msg.request.requester, seq, index++, false,
                          {}, response});
      }
    }
    next.core.discard_consumed(iteration);
  }
  return {std::move(next), std::move(outbox)};
}

}  // namespace

NodeLevelReport run_node_level_epoch(
    const GroupTable& groups, const NodeLevelConfig& config,
    std::span<const sim::BlockedSet> blocked_per_round, support::Rng& rng) {
  NodeLevelReport report;
  const std::size_t n = groups.size();
  const int d = groups.dimension();
  const double avg_group =
      static_cast<double>(n) / static_cast<double>(groups.supernodes());

  const auto schedule = sampling::group_schedule(
      sampling::SizeEstimate::from_true_size(n, config.size_estimate_slack), d,
      groups.max_group_size(), config.sampling);
  const int primitive_rounds = 2 * schedule.iterations + 1;

  // Wire sizes (bits). A snapshot carries every multiset entry as a
  // supernode label plus references to that supernode's representatives.
  const auto state_bits = [&](const Snapshot& snap) -> std::uint64_t {
    std::size_t entries = 0;
    for (int j = 1; j <= d; ++j) entries += snap.core.block(j).size();
    const double per_entry =
        static_cast<double>(d) + avg_group * 64.0;
    return 32 + static_cast<std::uint64_t>(
                    static_cast<double>(entries) * per_entry);
  };
  const std::uint64_t super_bits = 64 + 16;
  const auto group_bits = [](std::size_t members) -> std::uint64_t {
    return static_cast<std::uint64_t>(members) * 64 + 16;
  };

  // Per-node state.
  struct NodeState {
    std::uint64_t supernode = 0;
    SnapshotPtr state;
    support::Rng rng{0};
  };
  std::unordered_map<sim::NodeId, NodeState> nodes;
  for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
    for (sim::NodeId id : groups.group(x)) {
      NodeState state;
      state.supernode = x;
      Core core(d, x, schedule);
      // Phase 1 (local coin flips) must agree across the group: the paper
      // seeds it from the initial synchronized state, which we model by a
      // per-supernode stream.
      auto init_rng = rng.split(0xA000 + x);
      core.init(init_rng);
      state.state = std::make_shared<Snapshot>(std::move(core), 0);
      state.rng = rng.split(0xB0000 + id);
      nodes.emplace(id, std::move(state));
    }
  }

  sim::WorkMeter meter;
  sim::Bus<WireMsg> bus(&meter);
  bus.set_fault_hook(config.fault_hook);

  static const sim::BlockedSet kNone;
  const auto blocked_at = [&](sim::Round r) -> const sim::BlockedSet& {
    const auto index = static_cast<std::size_t>(r);
    return index < blocked_per_round.size() ? blocked_per_round[index]
                                            : kNone;
  };
  const auto is_available = [&](sim::NodeId id, sim::Round r) {
    if (blocked_at(r).contains(id)) return false;
    return r == 0 || !blocked_at(r - 1).contains(id);
  };
  const auto note_availability = [&](sim::Round r) {
    for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
      bool any = false;
      for (sim::NodeId id : groups.group(x)) {
        if (is_available(id, r)) {
          any = true;
          break;
        }
      }
      if (!any) ++report.silenced_group_rounds;
    }
  };
  const auto step_bus = [&]() {
    note_availability(bus.round());
    bus.step(blocked_at(bus.round()), blocked_at(bus.round() + 1));
  };

  // --- Sampler simulation: 2 overlay rounds per primitive round -------------
  for (int seq = 1; seq <= primitive_rounds; ++seq) {
    // Simulation round: resync, apply supernode messages, advance, send
    // candidates.
    for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
      for (sim::NodeId id : groups.group(x)) {
        if (!is_available(id, bus.round())) continue;
        auto& node = nodes.at(id);
        // Resynchronize from the freshest state seen (own or broadcast).
        SnapshotPtr best = node.state;
        std::map<std::pair<std::uint64_t, std::uint32_t>, SuperMsg> incoming;
        for (const auto& envelope : bus.inbox(id)) {
          const auto& payload = envelope.payload;
          if (payload.kind == WireMsg::Kind::kStateBroadcast &&
              (best == nullptr || payload.state->seq > best->seq)) {
            best = payload.state;
          } else if (payload.kind == WireMsg::Kind::kSuper &&
                     payload.super.seq == seq - 1) {
            incoming.emplace(
                std::make_pair(payload.super.src, payload.super.index),
                payload.super);
          }
        }
        if (best->seq > node.state->seq) {
          ++report.resyncs;
          node.state = best;
        }
        if (node.state->seq != seq - 1) continue;  // still stale: sit out
        std::vector<SuperMsg> deduped;
        deduped.reserve(incoming.size());
        for (auto& [key, msg] : incoming) deduped.push_back(msg);
        auto [next, outbox] = advance(*node.state, deduped,
                                      schedule.iterations, node.rng);
        auto candidate_state = std::make_shared<Snapshot>(std::move(next));
        auto candidate_outbox =
            std::make_shared<std::vector<SuperMsg>>(std::move(outbox));
        const auto bits =
            state_bits(*candidate_state) +
            static_cast<std::uint64_t>(candidate_outbox->size()) *
                super_bits;
        for (sim::NodeId member : groups.group(x)) {
          WireMsg msg;
          msg.kind = WireMsg::Kind::kCandidate;
          msg.state = candidate_state;
          msg.outbox = candidate_outbox;
          bus.send(id, member, std::move(msg), bits);
        }
      }
    }
    step_bus();

    // Synchronization round: adopt the lowest-id available candidate,
    // forward the supernode's messages, rebroadcast the adopted state.
    for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
      for (sim::NodeId id : groups.group(x)) {
        if (!is_available(id, bus.round())) continue;
        auto& node = nodes.at(id);
        SnapshotPtr winner;
        OutboxPtr winner_outbox;
        sim::NodeId winner_id = sim::kNoNode;
        for (const auto& envelope : bus.inbox(id)) {
          const auto& payload = envelope.payload;
          if (payload.kind != WireMsg::Kind::kCandidate) continue;
          const bool better =
              winner == nullptr || payload.state->seq > winner->seq ||
              (payload.state->seq == winner->seq &&
               envelope.from < winner_id);
          if (better) {
            winner = payload.state;
            winner_outbox = payload.outbox;
            winner_id = envelope.from;
          }
        }
        if (winner == nullptr) continue;  // group silent this step
        if (node.state->seq < winner->seq &&
            node.state->seq != winner->seq - 1) {
          ++report.resyncs;
        }
        node.state = winner;
        // Forward x's outgoing messages to every member of each target
        // group, and rebroadcast the adopted state.
        for (const auto& super : *winner_outbox) {
          for (sim::NodeId target : groups.group(super.dest)) {
            WireMsg msg;
            msg.kind = WireMsg::Kind::kSuper;
            msg.super = super;
            bus.send(id, target, std::move(msg), super_bits);
          }
        }
        const auto broadcast_bits = state_bits(*winner);
        for (sim::NodeId member : groups.group(x)) {
          WireMsg msg;
          msg.kind = WireMsg::Kind::kStateBroadcast;
          msg.state = winner;
          bus.send(id, member, std::move(msg), broadcast_bits);
        }
      }
    }
    step_bus();
  }

  // --- Reorganization (four overlay rounds) ---------------------------------
  // Round A: assignments fan out. The i-th member (by id) of R(x) goes to
  // the i-th sampled supernode; every available member of R(x) informs the
  // old group of that supernode.
  bool sample_shortage = false;
  for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
    for (sim::NodeId id : groups.group(x)) {
      if (!is_available(id, bus.round())) continue;
      const auto& node = nodes.at(id);
      if (node.state->seq != primitive_rounds) continue;
      const auto& samples = node.state->core.samples();
      const auto& members = groups.group(x);
      if (samples.size() < members.size()) {
        sample_shortage = true;
        continue;
      }
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (sim::NodeId target : groups.group(samples[i])) {
          WireMsg msg;
          msg.kind = WireMsg::Kind::kAssign;
          msg.assigned = members[i];
          msg.supernode = samples[i];
          bus.send(id, target, std::move(msg), 64 + 16);
        }
      }
    }
  }
  step_bus();

  // Round B: each old group collects its new membership R'(x) and gossips it
  // to the new members and to the neighboring old groups.
  std::unordered_map<sim::NodeId,
                     std::shared_ptr<const std::vector<sim::NodeId>>>
      collected_new_group;  // per old-group member: R'(its supernode)
  for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
    for (sim::NodeId id : groups.group(x)) {
      if (!is_available(id, bus.round())) continue;
      std::unordered_set<sim::NodeId> assigned;
      for (const auto& envelope : bus.inbox(id)) {
        if (envelope.payload.kind == WireMsg::Kind::kAssign &&
            envelope.payload.supernode == x) {
          assigned.insert(envelope.payload.assigned);
        }
      }
      auto fresh = std::make_shared<std::vector<sim::NodeId>>(
          assigned.begin(), assigned.end());
      std::sort(fresh->begin(), fresh->end());
      collected_new_group[id] = fresh;
      const auto bits = group_bits(fresh->size());
      // To the new members...
      for (sim::NodeId member : *fresh) {
        WireMsg msg;
        msg.kind = WireMsg::Kind::kNewGroup;
        msg.supernode = x;
        msg.group = fresh;
        bus.send(id, member, std::move(msg), bits);
      }
      // ...and to the old neighboring groups for neighbor forwarding.
      for (int bit = 0; bit < d; ++bit) {
        const std::uint64_t y = x ^ (std::uint64_t{1} << bit);
        for (sim::NodeId member : groups.group(y)) {
          WireMsg msg;
          msg.kind = WireMsg::Kind::kNewGroup;
          msg.supernode = x;
          msg.group = fresh;
          bus.send(id, member, std::move(msg), bits);
        }
      }
    }
  }
  step_bus();

  // Round C: a node receiving R'(x') that *contains its own id* has learned
  // its new group; old-group members additionally forward the neighbor
  // groups' new memberships to their own new members.
  struct Knowledge {
    std::shared_ptr<const std::vector<sim::NodeId>> own_group;
    std::uint64_t own_supernode = 0;
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const std::vector<sim::NodeId>>>
        neighbors;
  };
  std::unordered_map<sim::NodeId, Knowledge> knowledge;
  for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
    for (sim::NodeId id : groups.group(x)) {
      if (!is_available(id, bus.round())) continue;
      const auto own = collected_new_group.find(id);
      for (const auto& envelope : bus.inbox(id)) {
        const auto& payload = envelope.payload;
        if (payload.kind != WireMsg::Kind::kNewGroup) continue;
        // New-member role: this is my new group iff it lists me.
        if (std::binary_search(payload.group->begin(), payload.group->end(),
                               id)) {
          auto& know = knowledge[id];
          know.own_group = payload.group;
          know.own_supernode = payload.supernode;
        }
        // Old-member role: forward neighbor groups to my old supernode's
        // new members.
        if (payload.supernode != x && own != collected_new_group.end()) {
          for (sim::NodeId member : *own->second) {
            WireMsg msg;
            msg.kind = WireMsg::Kind::kNeighborGroup;
            msg.supernode = payload.supernode;
            msg.group = payload.group;
            bus.send(id, member, std::move(msg),
                     group_bits(payload.group->size()));
          }
        }
      }
    }
  }
  step_bus();

  // Round D: the new members collect their neighbor groups.
  // reconfnet-lint: allow(RNL005) each node reads only its own inbox and
  // writes only its own knowledge entry; nodes are independent
  for (const auto& [id, node] : nodes) {
    for (const auto& envelope : bus.inbox(id)) {
      const auto& payload = envelope.payload;
      if (payload.kind == WireMsg::Kind::kNeighborGroup) {
        knowledge[id].neighbors[payload.supernode] = payload.group;
      }
    }
  }
  step_bus();

  report.rounds = bus.round();
  report.max_node_bits_per_round = meter.max_node_bits_any_round();

  // Bus-level conservation audit (Section 1.1): over every finished round,
  // messages delivered never exceed messages sent and dropped messages
  // account exactly for the difference. The per-delivery blocking rule is
  // audited inside Bus::step itself.
  if (audit::enabled()) {
    audit::enforce(audit::check_bus_conservation(meter));
  }

  if (report.silenced_group_rounds > 0) {
    report.failure_reason = "a group was silenced";
    return report;
  }
  if (sample_shortage) {
    report.failure_reason = "too few samples for a group";
    return report;
  }

  // Ground truth: the canonical final state per supernode is whatever the
  // group's members adopted (they must all agree once they reached the final
  // primitive round), and the new groups follow from its samples.
  std::vector<std::vector<sim::NodeId>> fresh_groups(groups.supernodes());
  for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
    const Snapshot* canonical = nullptr;
    for (sim::NodeId id : groups.group(x)) {
      const auto& state = nodes.at(id).state;
      if (state->seq != primitive_rounds) continue;
      if (canonical == nullptr) {
        canonical = state.get();
      } else if (canonical->core.samples() != state->core.samples()) {
        report.failure_reason = "replicas of a supernode state diverged";
        return report;
      }
    }
    if (canonical == nullptr) {
      report.failure_reason = "no replica completed the simulation";
      return report;
    }
    const auto& members = groups.group(x);
    const auto& samples = canonical->core.samples();
    for (std::size_t i = 0; i < members.size(); ++i) {
      fresh_groups[samples[i]].push_back(members[i]);
    }
  }
  for (auto& members : fresh_groups) std::sort(members.begin(), members.end());

  // Lemma 15 postcondition: every node that could receive in the final
  // rounds knows its correct new group and all its correct neighbor groups.
  bool consistent = true;
  const sim::Round round_c = report.rounds - 2;
  const sim::Round round_d = report.rounds - 1;
  // reconfnet-lint: allow(RNL005) AND-reduction of per-node consistency;
  // order cannot change the verdict
  for (const auto& [id, node] : nodes) {
    if (!is_available(id, round_c) || !is_available(id, round_d)) continue;
    const auto it = knowledge.find(id);
    if (it == knowledge.end() || it->second.own_group == nullptr) {
      consistent = false;
      continue;
    }
    const auto& know = it->second;
    if (*know.own_group != fresh_groups[know.own_supernode]) {
      consistent = false;
    }
    for (int bit = 0; bit < d; ++bit) {
      const std::uint64_t y = know.own_supernode ^ (std::uint64_t{1} << bit);
      const auto neighbor = know.neighbors.find(y);
      if (neighbor == know.neighbors.end() ||
          *neighbor->second != fresh_groups[y]) {
        consistent = false;
      }
    }
  }
  report.knowledge_consistent = consistent;
  if (!consistent) {
    report.failure_reason = "inconsistent group knowledge";
    return report;
  }
  if (std::any_of(fresh_groups.begin(), fresh_groups.end(),
                  [](const auto& members) { return members.empty(); })) {
    report.failure_reason = "reassignment left a supernode empty";
    return report;
  }
  report.new_groups.emplace(d, std::move(fresh_groups));
  report.success = true;
  return report;
}

}  // namespace reconfnet::dos
