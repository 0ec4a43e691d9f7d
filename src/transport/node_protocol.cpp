#include "transport/node_protocol.hpp"

#include <algorithm>
#include <tuple>

#include "apps/dht/robust_store.hpp"

namespace reconfnet::transport {
namespace {

using Core = sampling::HypercubeSamplerCore;

/// Greedy bit-fixing next hop: flip the lowest bit where `cur` and `home`
/// differ (the k-ary overlay's digit fixing with k = 2).
std::uint64_t next_hop(std::uint64_t cur, std::uint64_t home) {
  const std::uint64_t diff = cur ^ home;
  return cur ^ (diff & (~diff + 1));
}

}  // namespace

NodeProtocol::NodeProtocol(sim::NodeId self, dos::GroupTable initial,
                           Config config)
    : NodeProtocol(self,
                   std::make_shared<const dos::GroupTable>(std::move(initial)),
                   std::move(config)) {}

NodeProtocol::NodeProtocol(sim::NodeId self,
                           std::shared_ptr<const dos::GroupTable> initial,
                           Config config)
    : self_(self), config_(std::move(config)), table_(std::move(initial)) {
  if (config_.epochs <= 0) {
    mode_ = Mode::kDone;
    metrics_.finished = true;
    epoch_rounds_ = 1;
    return;
  }
  begin_attempt(0);
}

void NodeProtocol::begin_attempt(sim::Round start_round) {
  epoch_start_ = start_round;
  supernode_ = table_->supernode_of(self_);
  ++metrics_.attempts;

  const int d = table_->dimension();
  schedule_ = sampling::group_schedule(
      sampling::SizeEstimate::from_true_size(table_->size(),
                                             config_.size_estimate_slack),
      d, table_->max_group_size(), config_.sampling);
  primitive_rounds_ = 2 * schedule_.iterations + 1;
  epoch_rounds_ = 2 * primitive_rounds_ + d + 6;

  // The epoch master stream: the first attempt of epoch 0 uses the run seed
  // directly (node_sim parity — a fresh Rng(seed) handed to
  // run_node_level_epoch); retries and later epochs remix so an aborted
  // attempt's stragglers can never collide with the retry's draws.
  std::uint64_t master_seed = config_.seed;
  if (epoch_ != 0 || attempt_ != 0) {
    std::uint64_t remix =
        config_.seed ^
        (static_cast<std::uint64_t>(epoch_) * 0x9E3779B97F4A7C15ULL) ^
        (static_cast<std::uint64_t>(attempt_) + 1) * 0xD1B54A32D192ED03ULL;
    master_seed = support::splitmix64(remix);
  }
  support::Rng master(master_seed);

  // Replay node_sim's global split order (Rng::split mutates the parent, so
  // every node must walk the full x-major, id-ascending loop and keep only
  // its own two streams for the states to agree across processes).
  support::Rng my_init{0};
  for (std::uint64_t x = 0; x < table_->supernodes(); ++x) {
    for (const sim::NodeId id : table_->group(x)) {
      auto init_rng = master.split(0xA000 + x);
      auto node_rng = master.split(0xB0000 + id);
      if (id == self_) {
        my_init = init_rng;
        rng_ = node_rng;
      }
    }
  }
  Core core(d, supernode_, schedule_);
  core.init(my_init);
  state_.emplace(Snap{std::move(core), 0});

  doomed_ = false;
  fresh_group_.clear();
  have_fresh_ = false;
  own_new_group_.clear();
  own_new_group_known_ = false;
  neighbor_groups_seen_.clear();
  gathered_.clear();
  gather_conflict_ = false;
  vote_complete_ = false;
  veto_seen_ = false;
}

bool NodeProtocol::on_round(sim::Round round,
                            std::span<const sim::Envelope<Message>> inbox,
                            Outbox& out,
                            std::span<const sim::NodeId> dead) {
  if (mode_ == Mode::kDone) return false;
  current_round_ = round;
  ++metrics_.rounds_total;
  if (mode_ == Mode::kEpochs) check_doomed(dead);

  accepted_.clear();
  for (const auto& envelope : inbox) {
    if (envelope.payload.kind == MsgKind::kHeartbeat) continue;
    ++metrics_.frames_received;
    metrics_.bits_received += 8ull * encoded_bytes(envelope.payload);
    if (!current_tag(envelope.payload)) {
      ++metrics_.stale_frames;
      continue;
    }
    if (!plausible(envelope.payload)) {
      ++metrics_.invalid_frames;
      continue;
    }
    accepted_.push_back(&envelope);
  }

  if (mode_ == Mode::kEpochs && round - epoch_start_ >= epoch_rounds_) {
    // A resync jump carried us past the commit boundary: the decision is
    // gone, so fall back to the old table and restart the attempt here.
    advance_epoch(/*committed=*/false, round);
  }

  if (mode_ == Mode::kSmoke) {
    smoke_round(round, out);
  } else if (mode_ == Mode::kEpochs) {
    const std::int64_t r = round - epoch_start_;
    const int two_p = 2 * primitive_rounds_;
    const int d = table_->dimension();
    if (r < two_p) {
      if (r % 2 == 0) {
        sampler_sim_round(static_cast<int>(r / 2) + 1, out);
      } else {
        sampler_sync_round(out);
      }
    } else if (r == two_p) {
      reorg_round_a(out);
    } else if (r == two_p + 1) {
      reorg_round_b(out);
    } else if (r == two_p + 2) {
      reorg_round_c(out);
    } else if (r == two_p + 3) {
      reorg_round_d();
    } else if (r < two_p + 4 + d) {
      allgather_round(static_cast<int>(r - (two_p + 4)), out);
    } else if (r == two_p + 4 + d) {
      vote_round(out);
    } else {
      commit_round(round);
    }
  }

  return !metrics_.finished;
}

// --- sampler phase ----------------------------------------------------------

void NodeProtocol::sampler_sim_round(int seq, Outbox& out) {
  // Resynchronize from the freshest state seen (own or broadcast), then
  // apply this primitive round's deduplicated supernode messages.
  const SamplerState* best = nullptr;
  super_scratch_.clear();
  for (const auto* envelope : accepted_) {
    const Message& msg = envelope->payload;
    if (msg.kind == MsgKind::kStateBroadcast) {
      const std::int32_t best_seq =
          best != nullptr ? best->seq
                          : static_cast<std::int32_t>(state_->seq);
      if (msg.state.seq > best_seq) best = &msg.state;
    } else if (msg.kind == MsgKind::kSuper && msg.super.seq == seq - 1) {
      super_scratch_.push_back(envelope);
    }
  }
  if (best != nullptr && best->seq > state_->seq) {
    ++metrics_.resyncs;
    *state_ = rebuild(*best, supernode_);
  }
  if (state_->seq != seq - 1) return;  // still stale: sit out

  // Every member of a sending group forwards the same message: keep the
  // first copy of each (src, index), in key order. Every pointer points into
  // this round's inbox span, so copies of one key are ordered by address,
  // which is arrival order.
  using Received = const sim::Envelope<Message>*;
  auto key = [](Received frame) {
    return std::tuple(frame->payload.super.src, frame->payload.super.index,
                      frame);
  };
  std::sort(super_scratch_.begin(), super_scratch_.end(),
            [&](Received a, Received b) { return key(a) < key(b); });
  super_scratch_.erase(
      std::unique(super_scratch_.begin(), super_scratch_.end(),
                  [](Received a, Received b) {
                    return a->payload.super.src == b->payload.super.src &&
                           a->payload.super.index == b->payload.super.index;
                  }),
      super_scratch_.end());
  auto [next, outbox] = advance(*state_, super_scratch_);

  // The candidate goes to the whole group (self included); our own copy is
  // adopted — or outvoted — in the synchronization round, exactly as in
  // node_sim.
  Message msg;
  msg.kind = MsgKind::kCandidate;
  msg.supernode = supernode_;
  msg.state = freeze(next);
  msg.outbox = std::move(outbox);
  emit(out, table_->group(supernode_), std::move(msg));
}

void NodeProtocol::sampler_sync_round(Outbox& out) {
  const Message* winner = nullptr;
  sim::NodeId winner_from = sim::kNoNode;
  for (const auto* envelope : accepted_) {
    const Message& msg = envelope->payload;
    if (msg.kind != MsgKind::kCandidate) continue;
    const bool better =
        winner == nullptr || msg.state.seq > winner->state.seq ||
        (msg.state.seq == winner->state.seq && envelope->from < winner_from);
    if (better) {
      winner = &msg;
      winner_from = envelope->from;
    }
  }
  if (winner == nullptr) return;  // group silent this step

  if (state_->seq < winner->state.seq &&
      state_->seq != winner->state.seq - 1) {
    ++metrics_.resyncs;
  }
  *state_ = rebuild(winner->state, supernode_);

  // Forward the supernode's outgoing messages to every member of each target
  // group, and rebroadcast the adopted state to our own group.
  for (const SuperMsg& super : winner->outbox) {
    if (super.dest >= table_->supernodes()) continue;
    Message msg;
    msg.kind = MsgKind::kSuper;
    msg.super = super;
    emit(out, table_->group(super.dest), std::move(msg));
  }
  Message broadcast;
  broadcast.kind = MsgKind::kStateBroadcast;
  broadcast.supernode = supernode_;
  broadcast.state = winner->state;
  emit(out, table_->group(supernode_), std::move(broadcast));
}

// --- reorganization (Lemma 15) ----------------------------------------------

void NodeProtocol::reorg_round_a(Outbox& out) {
  if (state_->seq != primitive_rounds_) return;
  const auto& samples = state_->core.samples();
  const auto& members = table_->group(supernode_);
  if (samples.size() < members.size()) {
    ++metrics_.sample_shortages;
    return;
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    Message msg;
    msg.kind = MsgKind::kAssign;
    msg.assigned = members[i];
    msg.supernode = samples[i];
    emit(out, table_->group(samples[i]), std::move(msg));
  }
}

void NodeProtocol::reorg_round_b(Outbox& out) {
  std::set<sim::NodeId> assigned;
  for (const auto* envelope : accepted_) {
    const Message& msg = envelope->payload;
    if (msg.kind == MsgKind::kAssign && msg.supernode == supernode_) {
      assigned.insert(msg.assigned);
    }
  }
  fresh_group_.assign(assigned.begin(), assigned.end());
  have_fresh_ = true;

  Message msg;
  msg.kind = MsgKind::kNewGroup;
  msg.supernode = supernode_;
  msg.group = fresh_group_;
  emit(out, fresh_group_, msg);
  for (int bit = 0; bit < table_->dimension(); ++bit) {
    const std::uint64_t y = supernode_ ^ (std::uint64_t{1} << bit);
    emit(out, table_->group(y), msg);
  }
}

void NodeProtocol::reorg_round_c(Outbox& out) {
  for (const auto* envelope : accepted_) {
    const Message& msg = envelope->payload;
    if (msg.kind != MsgKind::kNewGroup) continue;
    // New-member role: this is my new group iff it lists me.
    if (std::binary_search(msg.group.begin(), msg.group.end(), self_)) {
      own_new_group_ = msg.group;
      own_new_supernode_ = msg.supernode;
      own_new_group_known_ = true;
    }
    // Old-member role: forward neighbor groups to my supernode's new members.
    if (msg.supernode != supernode_ && have_fresh_) {
      Message forward;
      forward.kind = MsgKind::kNeighborGroup;
      forward.supernode = msg.supernode;
      forward.group = msg.group;
      emit(out, fresh_group_, std::move(forward));
    }
  }
}

void NodeProtocol::reorg_round_d() {
  for (const auto* envelope : accepted_) {
    const Message& msg = envelope->payload;
    if (msg.kind == MsgKind::kNeighborGroup) {
      neighbor_groups_seen_.insert(msg.supernode);
    }
  }
}

// --- table all-gather, vote, commit -----------------------------------------

void NodeProtocol::merge_table(const std::vector<TableEntry>& fragment) {
  for (const TableEntry& entry : fragment) {
    auto [it, inserted] = gathered_.try_emplace(entry.supernode,
                                                entry.members);
    if (!inserted && it->second != entry.members) gather_conflict_ = true;
  }
}

bool NodeProtocol::table_complete() const {
  if (gather_conflict_ || gathered_.size() != table_->supernodes()) {
    return false;
  }
  std::set<sim::NodeId> seen;
  for (const auto& [x, members] : gathered_) {
    if (members.empty()) return false;
    for (const sim::NodeId id : members) {
      if (!seen.insert(id).second) return false;
    }
  }
  return seen.size() == table_->size();
}

void NodeProtocol::allgather_round(int dim, Outbox& out) {
  for (const auto* envelope : accepted_) {
    const Message& msg = envelope->payload;
    if (msg.kind == MsgKind::kTableFrag) merge_table(msg.table);
  }
  if (dim == 0 && have_fresh_) {
    merge_table({TableEntry{supernode_, fresh_group_}});
  }
  if (gathered_.empty()) return;

  Message msg;
  msg.kind = MsgKind::kTableFrag;
  msg.supernode = supernode_;
  msg.table.reserve(gathered_.size());
  for (const auto& [x, members] : gathered_) {
    msg.table.push_back(TableEntry{x, members});
  }
  const std::uint64_t partner =
      supernode_ ^ (std::uint64_t{1} << static_cast<unsigned>(dim));
  emit(out, table_->group(partner), std::move(msg));
}

void NodeProtocol::vote_round(Outbox& out) {
  for (const auto* envelope : accepted_) {
    const Message& msg = envelope->payload;
    if (msg.kind == MsgKind::kTableFrag) merge_table(msg.table);
  }
  vote_complete_ = !doomed_ && table_complete();

  Message msg;
  msg.kind = MsgKind::kCommitVote;
  msg.supernode = supernode_;
  msg.complete = vote_complete_;
  emit(out, table_->group(supernode_), std::move(msg));
}

void NodeProtocol::commit_round(sim::Round round) {
  for (const auto* envelope : accepted_) {
    const Message& msg = envelope->payload;
    if (msg.kind == MsgKind::kCommitVote && !msg.complete) veto_seen_ = true;
  }
  const bool commit = vote_complete_ && !veto_seen_;
  if (commit) {
    std::vector<std::vector<sim::NodeId>> groups;
    groups.reserve(gathered_.size());
    for (const auto& [x, members] : gathered_) groups.push_back(members);
    table_ = std::make_shared<const dos::GroupTable>(table_->dimension(),
                                                     std::move(groups));
    // Lemma 15 view check: we learned our own new group and all d of its
    // neighbor groups through rounds C/D (not just through the all-gather).
    bool knowledge = own_new_group_known_;
    for (int bit = 0; knowledge && bit < table_->dimension(); ++bit) {
      const std::uint64_t y =
          own_new_supernode_ ^ (std::uint64_t{1} << bit);
      knowledge = neighbor_groups_seen_.count(y) > 0;
    }
    if (knowledge) ++metrics_.knowledge_epochs;
  }
  advance_epoch(commit, round + 1);
}

void NodeProtocol::advance_epoch(bool committed, sim::Round next_start) {
  if (committed) {
    ++metrics_.epochs_completed;
    ++epoch_;
    attempt_ = 0;
  } else {
    ++metrics_.fallbacks;
    if (doomed_) ++metrics_.doomed_attempts;
    ++attempt_;
    if (attempt_ >= config_.max_attempts) {
      ++metrics_.epochs_failed;
      ++epoch_;
      attempt_ = 0;
    }
  }
  if (epoch_ >= config_.epochs) {
    if (config_.dht_smoke) {
      mode_ = Mode::kSmoke;
      smoke_start_ = next_start;
    } else {
      mode_ = Mode::kDone;
      metrics_.finished = true;
    }
    return;
  }
  begin_attempt(next_start);
}

void NodeProtocol::check_doomed(std::span<const sim::NodeId> dead) {
  if (doomed_ || dead.empty()) return;
  for (std::uint64_t x = 0; x < table_->supernodes(); ++x) {
    bool alive = false;
    for (const sim::NodeId id : table_->group(x)) {
      if (!std::binary_search(dead.begin(), dead.end(), id)) {
        alive = true;
        break;
      }
    }
    if (!alive) {
      doomed_ = true;
      return;
    }
  }
}

// --- DHT smoke phase --------------------------------------------------------

void NodeProtocol::smoke_round(sim::Round round, Outbox& out) {
  const int d = table_->dimension();
  const std::int64_t r = round - smoke_start_;
  const std::uint64_t cur = table_->supernode_of(self_);
  if (r <= 0) {
    // Every node looks up its own id as the key.
    const std::uint64_t home = apps::RobustStore::hypercube_home(self_, d);
    if (cur == home) {
      metrics_.lookup_ok = true;
      return;
    }
    Message msg;
    msg.kind = MsgKind::kLookup;
    msg.key = self_;
    msg.origin = self_;
    msg.supernode = home;
    emit(out, table_->group(next_hop(cur, home)), std::move(msg));
    return;
  }
  for (const auto* envelope : accepted_) {
    const Message& msg = envelope->payload;
    if (msg.kind == MsgKind::kLookup) {
      if (!lookups_seen_.insert(msg.origin).second) continue;
      if (cur == msg.supernode) {
        Message reply;
        reply.kind = MsgKind::kLookupReply;
        reply.key = msg.key;
        reply.origin = msg.origin;
        emit(out, {&msg.origin, 1}, std::move(reply));
      } else {
        emit(out, table_->group(next_hop(cur, msg.supernode)), msg);
      }
    } else if (msg.kind == MsgKind::kLookupReply && msg.origin == self_) {
      metrics_.lookup_ok = true;
    }
  }
  // Worst case: d forwarding hops plus the reply hop, all in by r = d + 1.
  if (r >= d + 1) {
    mode_ = Mode::kDone;
    metrics_.finished = true;
  }
}

// --- sampler state plumbing -------------------------------------------------

NodeProtocol::Snap NodeProtocol::rebuild(const SamplerState& state,
                                         std::uint64_t supernode) const {
  Core core(table_->dimension(), supernode, schedule_);
  core.restore_blocks(state.blocks);
  return Snap{std::move(core), state.seq};
}

SamplerState NodeProtocol::freeze(const Snap& snap) const {
  SamplerState state;
  state.seq = snap.seq;
  state.blocks.reserve(static_cast<std::size_t>(table_->dimension()));
  for (int j = 1; j <= table_->dimension(); ++j) {
    state.blocks.push_back(snap.core.block(j));
  }
  return state;
}

std::pair<NodeProtocol::Snap, std::vector<SuperMsg>> NodeProtocol::advance(
    const Snap& prev,
    std::span<const sim::Envelope<Message>* const> incoming) {
  // Mirror of dos/node_sim.cpp advance(): odd seq = request phase, even seq
  // = response phase, identical call order so the rng streams line up.
  Snap next{prev.core, prev.seq + 1};
  std::vector<SuperMsg> outbox;
  const int seq = next.seq;
  const std::uint64_t self = next.core.self();
  std::uint32_t index = 0;
  if (seq % 2 == 1) {
    for (const auto* frame : incoming) {
      const SuperMsg& msg = frame->payload.super;
      if (msg.is_request) continue;
      Core::Response response;
      response.vertex = msg.resp_vertex;
      response.j = msg.resp_j;
      response.ok = msg.resp_ok;
      next.core.accept(response, rng_);
    }
    const int iteration = (seq + 1) / 2;
    if (iteration <= schedule_.iterations) {
      for (auto& [dest, request] : next.core.make_requests(iteration, rng_)) {
        SuperMsg out;
        out.src = self;
        out.dest = dest;
        out.seq = seq;
        out.index = index++;
        out.is_request = true;
        out.req_requester = request.requester;
        out.req_j = request.j;
        outbox.push_back(out);
      }
    }
  } else {
    const int iteration = seq / 2;
    for (const auto* frame : incoming) {
      const SuperMsg& msg = frame->payload.super;
      if (!msg.is_request) continue;
      Core::Request request;
      request.requester = msg.req_requester;
      request.j = msg.req_j;
      const auto response = next.core.serve(request, iteration, rng_);
      SuperMsg out;
      out.src = self;
      out.dest = msg.req_requester;
      out.seq = seq;
      out.index = index++;
      out.resp_vertex = response.vertex;
      out.resp_j = response.j;
      out.resp_ok = response.ok;
      outbox.push_back(out);
    }
    next.core.discard_consumed(iteration);
  }
  return {std::move(next), std::move(outbox)};
}

// --- framing helpers --------------------------------------------------------

void NodeProtocol::emit(Outbox& out, std::span<const sim::NodeId> to,
                        Message msg) {
  if (to.empty()) return;
  msg.round = current_round_;
  msg.epoch = epoch_;
  msg.attempt = attempt_;
  metrics_.frames_sent += to.size();
  metrics_.bits_sent += 8ull * encoded_bytes(msg) * to.size();
  out.add(to, std::move(msg));
}

bool NodeProtocol::current_tag(const Message& msg) const {
  return msg.epoch == epoch_ && msg.attempt == attempt_;
}

bool NodeProtocol::plausible(const Message& msg) const {
  const int d = table_->dimension();
  const std::uint64_t supernodes = table_->supernodes();
  switch (msg.kind) {
    case MsgKind::kCandidate:
    case MsgKind::kStateBroadcast: {
      const SamplerState& state = msg.state;
      if (state.seq < 0 || state.seq > primitive_rounds_ ||
          state.blocks.size() != static_cast<std::size_t>(d)) {
        return false;
      }
      for (const auto& block : state.blocks) {
        for (const std::uint64_t x : block) {
          if (x >= supernodes) return false;
        }
      }
      return true;
    }
    case MsgKind::kSuper: {
      // serve() answers a failed extraction with {0, 0, false}: only a
      // successful response is fed into a block.
      const SuperMsg& super = msg.super;
      return super.is_request || !super.resp_ok ||
             (super.resp_j >= 1 && super.resp_j <= d &&
              super.resp_vertex < supernodes);
    }
    case MsgKind::kAssign:
      // Round B adds `assigned` to the fresh group and sends it the group.
      return msg.supernode < supernodes && table_->contains(msg.assigned);
    case MsgKind::kTableFrag:
      // A committed table becomes the next epoch's groups: every entry must
      // name a supernode and nodes of the current table.
      return std::all_of(
          msg.table.begin(), msg.table.end(), [&](const TableEntry& entry) {
            return entry.supernode < supernodes &&
                   std::all_of(entry.members.begin(), entry.members.end(),
                               [&](sim::NodeId id) {
                                 return table_->contains(id);
                               });
          });
    case MsgKind::kLookup:
      // Lookups are forwarded toward the home supernode.
      return msg.supernode < supernodes && table_->contains(msg.origin);
    case MsgKind::kLookupReply:
      // The home group replies to `origin`.
      return table_->contains(msg.origin);
    default:
      return true;
  }
}

std::vector<sim::NodeId> NodeProtocol::peers() const {
  // Every node in the table, not just the routing neighborhood: the bus is
  // globally synchronous, so the live pacer must hear from EVERY live node
  // before it may leave a round. Tracking only group+neighbors lets the
  // pacer advance while a cross-neighborhood frame (all-gather table, reorg
  // assignment into a fresh group, forwarded supernode traffic) is still in
  // flight — the frame then lands one round late and is dropped, silently
  // diverging from the in-process reference.
  std::vector<sim::NodeId> out;
  out.reserve(table_->size());
  for (std::uint64_t x = 0; x < table_->supernodes(); ++x) {
    for (const sim::NodeId id : table_->group(x)) {
      if (id != self_) out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace reconfnet::transport
