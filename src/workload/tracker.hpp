// Per-request lifecycle tracking for the workload engine (DESIGN.md §12).
//
// Every request gets an id when issued (recording its issue round) and is
// later completed or failed; latency-in-rounds lands in a fixed-bucket
// LatencyHistogram (support::Percentiles — exact p50/p99/p999, mergeable).
// Ids are recycled through a free list, so after a warmup that reaches the
// high-water mark of in-flight requests the steady-state issue/complete/fail
// path allocates nothing — pinned statically by the workload-request-leaves
// hotpath entry and dynamically by the workload.steady_request budget
// (tools/hotcheck/hotpaths.toml, tests/allocbudget_test.cpp).
//
// Conservation: issued == completed + failed + in_flight at every round
// boundary, audited via audit::check_request_conservation.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"
#include "support/percentiles.hpp"

namespace reconfnet::workload {

/// Latencies are measured in communication rounds; the histogram is exact
/// per-round up to its bucket cap (overflow clamps, see Percentiles).
using LatencyHistogram = support::Percentiles;

using RequestId = std::uint32_t;

/// The latency histogram's cap in rounds.
inline constexpr std::uint64_t kMaxLatencyRounds = 4095;

class RequestTracker {
 public:
  /// `max_latency_rounds` caps the histogram (larger latencies clamp);
  /// `capacity_hint` pre-sizes the slot pool to the expected in-flight
  /// high-water mark so steady state never grows it.
  explicit RequestTracker(std::uint64_t max_latency_rounds = kMaxLatencyRounds,
                          std::size_t capacity_hint = 1024)
      : latency_(max_latency_rounds) {
    issue_round_.reserve(capacity_hint);
    free_.reserve(capacity_hint);
  }

  /// Issues a new request at `round`; returns its id. Steady-state
  /// allocation-free (recycles a free slot when one exists).
  [[nodiscard]] RequestId issue(sim::Round round) noexcept {
    ++issued_;
    ++live_;
    if (!free_.empty()) {
      const RequestId id = free_.back();
      free_.pop_back();
      issue_round_[id] = round;
      return id;
    }
    const auto id = static_cast<RequestId>(issue_round_.size());
    issue_round_.push_back(round);
    return id;
  }

  /// Marks the request completed at `round` and records its latency.
  void complete(RequestId id, sim::Round round) noexcept {
    ++completed_;
    --live_;
    const sim::Round waited = round - issue_round_[id];
    latency_.add(waited >= 0 ? static_cast<std::uint64_t>(waited) : 0);
    free_.push_back(id);
  }

  /// Marks the request permanently failed (retries exhausted) at `round`.
  void fail(RequestId id, sim::Round round) noexcept {
    (void)round;
    ++failed_;
    --live_;
    free_.push_back(id);
  }

  [[nodiscard]] sim::Round issue_round(RequestId id) const {
    return issue_round_[id];
  }
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// Physically counted (incremented on issue, decremented on completion or
  /// failure) rather than derived, so conserved() is a real cross-check.
  [[nodiscard]] std::uint64_t in_flight() const { return live_; }
  /// The conservation invariant the audit layer enforces.
  [[nodiscard]] bool conserved() const {
    return issued_ == completed_ + failed_ + live_;
  }

  [[nodiscard]] const LatencyHistogram& latency() const { return latency_; }

 private:
  std::vector<sim::Round> issue_round_;  // slot pool, indexed by RequestId
  std::vector<RequestId> free_;          // recycled slots
  LatencyHistogram latency_;
  std::uint64_t issued_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t live_ = 0;
};

}  // namespace reconfnet::workload
