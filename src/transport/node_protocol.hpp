// Per-node state machine of the Section 5 protocol (DESIGN.md §15).
//
// dos/node_sim.cpp runs the whole replicated-supernode epoch inside one
// function with shared memory; this class re-expresses the SAME protocol as
// one node's view — receive frames, compute, emit frames — so it can run
// over any Transport: the in-process bus (lockstep, deterministic) or live
// UDP across processes (deadline-paced). Decision for decision it mirrors
// node_sim (candidate/sync rounds, lowest-id adoption, the four
// reorganization rounds), and it replays node_sim's exact per-epoch Rng
// split order, so a no-fault in-process run reproduces run_node_level_epoch's
// reorganized group table bit for bit (asserted in tests/transport_test.cpp).
//
// On top of node_sim's rounds the per-node protocol adds what a distributed
// run needs and a centralized one does not:
//   * a d-round hypercube all-gather of the new group table (node_sim reads
//     it out of shared memory; live nodes must learn it to start the next
//     epoch),
//   * a commit/fallback round: a node whose gathered table is incomplete or
//     conflicted — or whose old group voted incomplete — falls back to the
//     previous configuration and retries the epoch with fresh streams,
//     bounded by max_attempts (graceful degradation, never wedge),
//   * epoch/attempt tags on every frame so stragglers from an aborted
//     attempt cannot corrupt the retry,
//   * per-round heartbeats carrying the epoch position (pacer liveness), and
//   * an optional DHT smoke phase after the last epoch: every node routes a
//     greedy bit-fixing lookup (apps/dht key hashing) over the final tables.
//
// Epoch round layout, with P = 2 * schedule.iterations + 1 primitive rounds:
//   [0, 2P)               sampler simulation/synchronization (node_sim)
//   2P .. 2P+3            reorganization rounds A-D (node_sim)
//   [2P+4, 2P+4+d)        table all-gather along hypercube dimensions
//   2P+4+d                merge + completeness vote to the old group
//   2P+5+d                commit or fallback; next epoch starts next round
// Every attempt of one epoch occupies exactly 2P + d + 6 rounds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ranges>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "dos/group_table.hpp"
#include "sampling/hypercube_sampler.hpp"
#include "sampling/schedule.hpp"
#include "sim/bus.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"
#include "transport/wire.hpp"

namespace reconfnet::transport {

class NodeProtocol {
 public:
  struct Config {
    std::uint64_t seed = 1;
    int epochs = 1;
    int max_attempts = 3;  ///< epoch retries before giving up on it
    sampling::SamplingConfig sampling{};
    int size_estimate_slack = 0;
    bool dht_smoke = false;  ///< run the lookup phase after the last epoch
  };

  struct Metrics {
    std::int64_t epochs_completed = 0;
    std::int64_t epochs_failed = 0;  ///< epochs abandoned after max_attempts
    std::int64_t attempts = 0;       ///< epoch attempts started
    std::int64_t fallbacks = 0;      ///< attempts ended in fallback
    std::int64_t resyncs = 0;        ///< state adopted from a broadcast
    std::int64_t sample_shortages = 0;
    std::int64_t doomed_attempts = 0;  ///< aborted on group silence
    std::int64_t knowledge_epochs = 0;  ///< epochs with full Lemma 15 view
    std::int64_t rounds_total = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bits_sent = 0;      ///< protocol frames only
    std::uint64_t bits_received = 0;  ///< protocol frames only
    std::uint64_t stale_frames = 0;   ///< mismatched epoch/attempt tags
    std::uint64_t invalid_frames = 0;  ///< current tag, implausible content
    bool lookup_ok = false;  ///< DHT smoke reply reached us
    bool finished = false;
  };

  /// The frames one round emits: each Message once, with the destinations
  /// of every frame in one flat id list. frames() visits each frame once
  /// with its destination list; iterating the outbox itself visits every
  /// (destination, frame) pair in emit order.
  class Outbox {
   public:
    /// One frame and its destinations, as frames() yields it.
    struct Frame {
      std::span<const sim::NodeId> to;
      const Message& msg;
    };

    /// Per-destination iterator. It keeps the pair it yields, so
    /// `for (auto& [to, msg] : outbox)` binds `msg` to the stored frame.
    class iterator {
     public:
      using value_type = std::pair<sim::NodeId, const Message&>;

      iterator(const Outbox* box, std::size_t id, std::size_t frame)
          : box_(box), id_(id), frame_(frame) {}
      value_type& operator*() const {
        return entry_.emplace(box_->ids_[id_], box_->messages_[frame_]);
      }
      iterator& operator++() {
        if (++id_ == box_->ends_[frame_]) ++frame_;
        return *this;
      }
      bool operator==(const iterator& other) const { return id_ == other.id_; }

     private:
      const Outbox* box_;
      std::size_t id_;
      std::size_t frame_;
      mutable std::optional<value_type> entry_;
    };

    /// Queues `msg` once for every id in `to`; an empty list queues
    /// nothing, so every frame has a destination.
    void add(std::span<const sim::NodeId> to, Message msg) {
      if (to.empty()) return;
      ids_.insert(ids_.end(), to.begin(), to.end());
      ends_.push_back(ids_.size());
      messages_.push_back(std::move(msg));
    }
    /// Queues a copy of `msg` for `to` alone.
    void emplace_back(sim::NodeId to, const Message& msg) {
      add({&to, 1}, msg);
    }
    void clear() {
      messages_.clear();
      ends_.clear();
      ids_.clear();
    }

    [[nodiscard]] iterator begin() const { return {this, 0, 0}; }
    [[nodiscard]] iterator end() const {
      return {this, ids_.size(), messages_.size()};
    }

    /// The frames in emit order, each with its destination list.
    [[nodiscard]] auto frames() const {
      return std::views::iota(std::size_t{0}, messages_.size()) |
             std::views::transform([this](std::size_t f) {
               const std::size_t first = f == 0 ? 0 : ends_[f - 1];
               return Frame{std::span(ids_).subspan(first, ends_[f] - first),
                            messages_[f]};
             });
    }

   private:
    std::vector<Message> messages_;
    std::vector<std::size_t> ends_;  ///< one past each frame's last id
    std::vector<sim::NodeId> ids_;
  };

  NodeProtocol(sim::NodeId self, dos::GroupTable initial, Config config);
  /// Starts from a table other nodes may share: a deployment builds its
  /// initial table once instead of once per node. Each commit gives the
  /// node a table of its own.
  NodeProtocol(sim::NodeId self,
               std::shared_ptr<const dos::GroupTable> initial, Config config);

  /// Runs one protocol round: consumes the frames delivered for `round`
  /// (sent in round - 1), appends the round's outgoing frames to `out` and
  /// advances the internal phase machine. `dead`
  /// lists peers known dead (sorted; from the pacer's evictions or the
  /// fault plan), feeding the group-silence abort. Returns false once all
  /// epochs and the smoke phase are done (the caller may keep pacing/linger).
  bool on_round(sim::Round round,
                std::span<const sim::Envelope<Message>> inbox, Outbox& out,
                std::span<const sim::NodeId> dead);

  [[nodiscard]] bool finished() const { return metrics_.finished; }
  [[nodiscard]] const dos::GroupTable& table() const { return *table_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] sim::NodeId self() const { return self_; }
  /// Rounds one attempt of the current epoch occupies.
  [[nodiscard]] int epoch_rounds() const { return epoch_rounds_; }

  /// Heartbeat/liveness peer set under the current table: every node, self
  /// excluded, ascending — the bus is globally synchronous, so live pacing
  /// must wait on the whole membership, not just the routing neighborhood.
  [[nodiscard]] std::vector<sim::NodeId> peers() const;

 private:
  enum class Mode { kEpochs, kSmoke, kDone };

  /// A supernode state replica: the sampler core after `seq` primitive
  /// rounds (node_sim's Snapshot, by value).
  struct Snap {
    sampling::HypercubeSamplerCore core;
    int seq = 0;
  };

  // --- phase handlers (r = round - epoch_start_) ----------------------------
  // All of them read the round's tag-checked frames from accepted_.
  void sampler_sim_round(int seq, Outbox& out);
  void sampler_sync_round(Outbox& out);
  void reorg_round_a(Outbox& out);
  void reorg_round_b(Outbox& out);
  void reorg_round_c(Outbox& out);
  void reorg_round_d();
  void allgather_round(int dim, Outbox& out);
  void vote_round(Outbox& out);
  void commit_round(sim::Round round);
  void smoke_round(sim::Round round, Outbox& out);

  /// Starts (or retries) the current epoch at `start_round`: re-derives the
  /// schedule and the node_sim-parity rng streams from the current table.
  void begin_attempt(sim::Round start_round);
  /// Epoch boundary bookkeeping: commit or fallback, retry budget, and the
  /// transition into the smoke/done modes. `next_start` is the first round
  /// of the next attempt (or of the smoke phase).
  void advance_epoch(bool committed, sim::Round next_start);
  /// Sets doomed_ when some current group has every member in `dead`.
  void check_doomed(std::span<const sim::NodeId> dead);
  /// Merges one incoming table fragment, tracking conflicts.
  void merge_table(const std::vector<TableEntry>& fragment);
  /// True iff the gathered table is a complete, conflict-free partition of
  /// the current node set into 2^d non-empty groups. plausible() admits only
  /// fragments of supernodes below 2^d and nodes of the current table, so
  /// 2^d entries holding table_.size() distinct ids are exactly that.
  [[nodiscard]] bool table_complete() const;

  [[nodiscard]] Snap rebuild(const SamplerState& state,
                             std::uint64_t supernode) const;
  [[nodiscard]] SamplerState freeze(const Snap& snap) const;
  /// node_sim's advance(): one primitive round on a copy of `prev`, fed
  /// the round's deduplicated kSuper frames in (src, index) order.
  [[nodiscard]] std::pair<Snap, std::vector<SuperMsg>> advance(
      const Snap& prev,
      std::span<const sim::Envelope<Message>* const> incoming);

  /// Tags and meters one protocol frame, once per destination in `to`, and
  /// queues it once for all of them.
  void emit(Outbox& out, std::span<const sim::NodeId> to, Message msg);
  /// True iff the frame belongs to the current (epoch, attempt).
  [[nodiscard]] bool current_tag(const Message& msg) const;
  /// True iff the fields the phase handlers index with or send to are in
  /// range: sampler states carry d blocks of supernode ids below 2^d and a
  /// seq in [0, P]; a successful sampler response names a block in [1, d]
  /// and a supernode below 2^d; an assignment names a supernode below 2^d
  /// and a node of the current table; every table-fragment entry names a
  /// supernode below 2^d and only nodes of the current table; a lookup names
  /// a home supernode below 2^d, and a lookup or its reply an origin of the
  /// current table. Frames arrive from outside on the live path.
  [[nodiscard]] bool plausible(const Message& msg) const;

  sim::NodeId self_;
  Config config_;
  std::shared_ptr<const dos::GroupTable> table_;
  Mode mode_ = Mode::kEpochs;
  Metrics metrics_;

  // Epoch/attempt position.
  std::int64_t epoch_ = 0;
  std::int32_t attempt_ = 0;
  sim::Round epoch_start_ = 0;
  sim::Round current_round_ = 0;

  // Per-attempt derived state.
  std::uint64_t supernode_ = 0;
  sampling::Schedule schedule_;
  int primitive_rounds_ = 0;
  int epoch_rounds_ = 0;
  support::Rng rng_{0};
  std::optional<Snap> state_;
  bool doomed_ = false;

  // Reorganization state.
  std::vector<sim::NodeId> fresh_group_;  ///< R'(supernode_) from round B
  bool have_fresh_ = false;
  std::vector<sim::NodeId> own_new_group_;  ///< learned in round C
  std::uint64_t own_new_supernode_ = 0;
  bool own_new_group_known_ = false;
  std::set<std::uint64_t> neighbor_groups_seen_;  ///< learned in round D
  std::map<std::uint64_t, std::vector<sim::NodeId>> gathered_;
  bool gather_conflict_ = false;
  bool vote_complete_ = false;
  bool veto_seen_ = false;

  // DHT smoke state.
  sim::Round smoke_start_ = 0;
  std::set<sim::NodeId> lookups_seen_;

  // Scratch buffers (recycled across rounds).
  std::vector<const sim::Envelope<Message>*> accepted_;
  std::vector<const sim::Envelope<Message>*> super_scratch_;  ///< kSuper
};

}  // namespace reconfnet::transport
