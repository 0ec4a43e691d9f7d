// Algorithm 1 of the paper: rapid node sampling in H-graphs. Random walks of
// length Theta(log n) are assembled by pointer doubling: after iteration i,
// each node's multiset M holds endpoints of independent random walks of
// length 2^i (Lemma 5). With the schedule of Lemma 7, the algorithm succeeds
// w.h.p. and delivers >= beta log n almost-uniform samples per node in
// O(log log n) communication rounds (Theorem 2).
//
// The implementation runs at message level on the flat request/serve/accept
// exchange (sampling/exchange.hpp). Each loop iteration costs two rounds
// (requests travel in one round, responses in the next; the paper's Phase 4
// of iteration i and Phase 2 of iteration i+1 share a round). Walk lengths
// are carried as simulation-only metadata so tests can check the Lemma 5
// invariant directly; they are not charged as message bits.
//
// Memory: M_0 is the largest multiset, (2+eps)^T times the final one, and
// every entry of it is a length-1 walk to one of the node's neighbours. So
// the core stores M_0 as one port byte per entry, next to its own copy of
// the node's port row, and turns a port into its neighbour only when the
// entry is sent (Phase 2) or spliced (Phase 3). At the end of iteration 1's
// Phase 3 the port bytes and the row are freed, and from then on M holds
// WalkEntry values in storage reserved for m_1 of them. The draws and swaps
// are the ones an M_0 of WalkEntry values would take, so every output is the
// same.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "graph/hgraph.hpp"
#include "sampling/schedule.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::sim {
class DeliveryHook;
}  // namespace reconfnet::sim

namespace reconfnet::sampling {

/// An element of the multiset M: the endpoint of a random walk starting at
/// the owning node, together with the walk's length (validation metadata).
/// Vertex indices are 32-bit, like the exchange's node indices.
struct WalkEntry {
  std::uint32_t vertex = 0;
  std::uint32_t length = 0;
};

/// Per-node state machine for Algorithm 1 over dense vertex indices.
/// run_hgraph_sampling (below) wires the cores together over the exchange.
class HGraphSamplerCore {
 public:
  struct Request {
    std::uint32_t requester = 0;
    std::uint32_t requester_walk_length = 0;
  };
  /// A spliced walk. Every walk has length >= 1, so length 0 marks the
  /// failed response of a dry server.
  struct Response {
    std::uint32_t vertex = 0;
    std::uint32_t length = 0;
    [[nodiscard]] bool ok() const { return length != 0; }
  };

  HGraphSamplerCore(std::size_t self, Schedule schedule, support::Rng rng);

  /// Phase 1: fills M with m_0 uniformly random neighbors, i.e. endpoints of
  /// walks of length 1. `neighbors[p]` is the neighbor through port p. The
  /// core keeps its own copy of the row, so it may be a temporary. M_0 holds
  /// one port byte per entry, so a row of more than 256 ports is rejected
  /// with std::invalid_argument.
  void init(std::span<const std::uint32_t> neighbors);

  /// Phase 2 of iteration i (1-based): extracts m_i entries from M; each
  /// yields a request addressed to the extracted walk endpoint. The
  /// extracted entries stay in the tail of M's storage until Phase 3 ends.
  void make_requests(int iteration);

  /// Calls f(destination, request) for each request of the current
  /// iteration, in extraction (send) order.
  template <typename F>
  void for_each_request(F&& f) const {
    for (std::size_t k = stored(); k > live_; --k) {
      const WalkEntry entry = at(k - 1);
      f(entry.vertex, Request{self_, entry.length});
    }
  }

  /// Phase 3: serves one incoming request by extracting an entry from M and
  /// splicing the walks. A dry M yields a failed response.
  [[nodiscard]] Response serve(const Request& request);

  /// End of Phase 3: un-served leftovers of M are discarded (Algorithm 1
  /// line 14 replaces M by the received responses). The first call frees
  /// M_0's port bytes and the port row.
  void discard_leftovers();

  /// Phase 4, after discard_leftovers: accepts one response into M (failed
  /// responses are counted but not stored).
  void accept(const Response& response);

  /// Shuffles the multiset in place; the drivers call this after each
  /// collection phase (Algorithm 1's M is an unordered multiset, and
  /// responses arrive ordered by responder, whose position correlates with
  /// the walk endpoints, while consumers such as Algorithm 3's sample pool
  /// take a prefix).
  void shuffle_multiset();

  /// M as walk entries, whichever way it is stored: a sized, random-access
  /// view whose elements are WalkEntry values. It is invalidated by every
  /// call that changes M.
  [[nodiscard]] auto multiset() const {
    return std::views::iota(std::size_t{0}, live_) |
           std::views::transform([this](std::size_t k) { return at(k); });
  }
  [[nodiscard]] std::size_t dry_events() const { return dry_events_; }
  [[nodiscard]] std::size_t failed_responses() const {
    return failed_responses_;
  }
  [[nodiscard]] std::size_t self() const { return self_; }
  [[nodiscard]] const Schedule& schedule() const { return schedule_; }

 private:
  std::uint32_t self_;
  Schedule schedule_;
  support::Rng rng_;
  /// True from init to the end of iteration 1's Phase 3, while M is M_0 and
  /// is stored in ports_: entry k is the walk of length 1 to
  /// port_row_[ports_[k]]. Afterwards M is stored in m_.
  bool port_coded_ = false;
  std::vector<std::uint32_t> port_row_;
  std::vector<std::uint8_t> ports_;
  std::vector<WalkEntry> m_;
  /// M is entries [0, live_) of its storage; between Phase 2 and the end of
  /// Phase 3 the tail [live_, stored()) holds this iteration's requests,
  /// last one first.
  std::size_t live_ = 0;
  std::size_t dry_events_ = 0;
  std::size_t failed_responses_ = 0;

  [[nodiscard]] std::size_t stored() const {
    return port_coded_ ? ports_.size() : m_.size();
  }
  /// Stored entry k as a walk.
  [[nodiscard]] WalkEntry at(std::size_t k) const {
    if (port_coded_) return {port_row_[ports_[k]], 1};
    return m_[k];
  }

  /// Moves a uniformly random entry of M to the front of the tail, i.e. to
  /// index live_ after the call; false (a dry event) if M is empty.
  [[nodiscard]] bool extract();
};

/// Result of a full standalone execution over all nodes of an H-graph.
struct HGraphSamplingResult {
  bool success = false;          ///< no extraction ever hit an empty multiset
  std::size_t dry_events = 0;    ///< total dry extractions across all nodes
  sim::Round rounds = 0;         ///< communication rounds consumed
  std::uint64_t max_node_bits_per_round = 0;
  /// samples[v] = vertices sampled by node v (size m_T on success).
  std::vector<std::vector<std::size_t>> samples;
  /// walk_lengths[v][k] = length of the walk that produced samples[v][k].
  std::vector<std::vector<std::size_t>> walk_lengths;
  /// Copies the fault hook delivered after their phase had ended, e.g. a
  /// request delayed into the next iteration. They are discarded unused.
  std::size_t late_copies = 0;
};

/// Runs Algorithm 1 on every node of `graph` simultaneously and returns all
/// samples. Drives the cores over the exchange with full communication-work
/// accounting. An optional fault hook makes delivery lossy; lost or delayed
/// traffic surfaces as dry multisets (success = false) or fewer samples,
/// never wrong samples: a late copy is discarded, not used.
HGraphSamplingResult run_hgraph_sampling(const graph::HGraph& graph,
                                         const Schedule& schedule,
                                         support::Rng& rng,
                                         sim::DeliveryHook* fault_hook =
                                             nullptr);

}  // namespace reconfnet::sampling
