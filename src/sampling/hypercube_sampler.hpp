// Algorithm 2 of the paper: rapid node sampling in the d-dimensional
// hypercube. The classic coin-flip walk (Section 2.3) randomizes one
// coordinate per round; Algorithm 2 instead randomizes coordinate *blocks*
// and doubles the block width every iteration, finishing in ceil(log2 d)
// iterations (the paper writes log log n for d = log n = 2^k). After
// iteration i, for every live block index j, each entry of M_j agrees with
// the owner outside the block's coordinate window while the window itself is
// uniformly random (Lemma 8). The schedule of Lemma 9 makes every extraction
// succeed w.h.p. (Theorem 3).
//
// The per-node logic is a pure state machine (HypercubeSamplerCore) whose
// randomness is injected per call; this is what lets the Section 5 overlay
// replicate a supernode's execution across its group of representatives and
// adopt the lowest-id available node's version.
//
// Generalization beyond d = 2^k: a block whose partner block would start past
// dimension d is already complete and is simply carried over; for d = 2^k
// this never happens and the algorithm is exactly the paper's.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/hypercube.hpp"
#include "sampling/schedule.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::sampling {

/// Per-node (or per-supernode) state machine for Algorithm 2.
class HypercubeSamplerCore {
 public:
  struct Request {
    std::uint64_t requester = 0;  ///< hypercube vertex of the requester
    int j = 0;                    ///< block index (1-indexed coordinate)
  };
  struct Response {
    std::uint64_t vertex = 0;  ///< spliced walk endpoint
    int j = 0;                 ///< block index it belongs to at the requester
    bool ok = false;
  };

  HypercubeSamplerCore(int dimension, std::uint64_t self, Schedule schedule);

  /// Phase 1: for every j, M_j holds m_0 entries that are `self` with
  /// coordinate j randomized by a fair coin. Same as allocate(), then
  /// draw_initial(rng).
  void init(support::Rng& rng);

  /// Phase 1's storage: empties every block and reserves m_0 entries in
  /// each. Draws nothing.
  void allocate();

  /// Phase 1's draws, into the storage allocate() reserved; allocates
  /// nothing, so it may run on another thread than allocate().
  void draw_initial(support::Rng& rng);

  /// Phase 2 of iteration i (1-based): extracts m_i entries from each live
  /// requester block M_j (j = 1, 1+2^i, ...; partner within range) and emits
  /// one request per entry, addressed to the entry's vertex.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, Request>> make_requests(
      int iteration, support::Rng& rng);

  /// make_requests into `out`, which is cleared first. It allocates nothing
  /// when `out` has room for request_capacity() requests.
  void make_requests(int iteration, support::Rng& rng,
                     std::vector<std::pair<std::uint64_t, Request>>& out);

  /// The most requests make_requests emits in any iteration of the schedule.
  [[nodiscard]] std::size_t request_capacity() const;

  /// Phase 3: serves a request by extracting from the partner block
  /// M_{j + 2^{i-1}} and splicing coordinate windows.
  [[nodiscard]] Response serve(const Request& request, int iteration,
                               support::Rng& rng);

  /// End of Phase 3 / start of Phase 4: clears every block that participated
  /// in iteration i (requesters and partners); complete blocks carry over.
  void discard_consumed(int iteration);

  /// Phase 4: stores a response into M_{response.j}. The multiset is
  /// semantically unordered; the response is inserted at a uniformly random
  /// position so that no downstream consumer of a *prefix* of the samples
  /// inherits the (value-correlated) network delivery order.
  void accept(const Response& response, support::Rng& rng);

  /// Final output: M_1 after the last iteration — uniform samples over the
  /// whole vertex set.
  [[nodiscard]] const std::vector<std::uint64_t>& samples() const;

  /// Block contents, for invariant checks (Lemma 8). j is 1-indexed.
  [[nodiscard]] const std::vector<std::uint64_t>& block(int j) const;

  /// Replaces every block wholesale: `blocks[j-1]` becomes M_j. This is the
  /// deserialization path of the transport layer (src/transport/), which
  /// ships replicated snapshots as raw block contents and reconstructs the
  /// core from (dimension, self, schedule) on the receiving side. Requires
  /// exactly dimension() entries. The dry/failed diagnostic counters are not
  /// part of the replicated state and stay untouched.
  void restore_blocks(std::vector<std::vector<std::uint64_t>> blocks);

  /// Width of the coordinate window [j, j + width) of block j after
  /// `iterations_done` completed iterations.
  [[nodiscard]] int window_width(int j, int iterations_done) const;

  /// True if block j is live (a requester block) after `iterations_done`
  /// iterations: j == 1 mod 2^iterations_done.
  [[nodiscard]] static bool live_block(int j, int iterations_done);

  [[nodiscard]] std::size_t dry_events() const { return dry_events_; }
  [[nodiscard]] std::size_t failed_responses() const {
    return failed_responses_;
  }
  [[nodiscard]] std::uint64_t self() const { return self_; }
  [[nodiscard]] int dimension() const { return dimension_; }
  [[nodiscard]] const Schedule& schedule() const { return schedule_; }

 private:
  int dimension_;
  std::uint64_t self_;
  Schedule schedule_;
  std::vector<std::vector<std::uint64_t>> blocks_;  // blocks_[j-1] = M_j
  std::size_t dry_events_ = 0;
  std::size_t failed_responses_ = 0;

  [[nodiscard]] bool extract(int j, support::Rng& rng, std::uint64_t& out);
};

/// Result of a standalone execution over all vertices of a hypercube.
struct HypercubeSamplingResult {
  bool success = false;
  std::size_t dry_events = 0;
  sim::Round rounds = 0;
  std::uint64_t max_node_bits_per_round = 0;
  /// samples[v] = uniform vertex samples collected by vertex v.
  std::vector<std::vector<std::uint64_t>> samples;
  /// Node ranges the exchange ran on; no other field depends on it.
  std::size_t ranges = 1;
};

/// Runs Algorithm 2 on every vertex of the hypercube simultaneously over the
/// request/serve/accept exchange (sampling/exchange.hpp) with
/// communication-work accounting.
HypercubeSamplingResult run_hypercube_sampling(const graph::Hypercube& cube,
                                               const Schedule& schedule,
                                               support::Rng& rng);

}  // namespace reconfnet::sampling
