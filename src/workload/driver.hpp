// Deterministic open-loop workload driver (DESIGN.md §12): pumps a keyed
// read/write mix — Zipfian or uniform keys, fixed-rate or Poisson arrivals —
// into one of the Section 7 applications while churn epochs, round-level DoS
// blocking, and an injected FaultPlan run concurrently.
//
// Time model: one virtual round per serving round; a reconfiguration epoch
// advances the virtual clock by the epoch's communication rounds while
// arrivals keep accumulating and nothing is served — exactly the p999 spike
// the W-benches measure. Per round the driver issues arrivals, then walks the
// pending queue once: each request draws a uniform entry group, optionally
// takes the hot-key fast path (hot_key.hpp), otherwise consumes one unit of
// its home group's per-round capacity and is served through the app adapter.
// Requests that find their home group at capacity wait (no head-of-line
// blocking of other groups); requests lost to faults or failed serves retry
// up to max_attempts, then fail.
//
// Determinism: every random decision draws from a dedicated split of the
// trial's master Rng (keys, arrivals, ops, blocking, serving, epochs,
// faults), so reports are byte-identical across --jobs. Request conservation
// (issued == completed + failed + in-flight) is enforced against the
// physical queue occupancy at every round boundary via
// audit::check_request_conservation.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/plan.hpp"
#include "sim/blocked.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"
#include "workload/arrival.hpp"
#include "workload/hot_key.hpp"
#include "workload/key_dist.hpp"
#include "workload/tracker.hpp"

namespace reconfnet::workload {

/// One workload request: a keyed read or write.
struct Op {
  bool is_write = false;
  std::uint64_t key = 0;
  std::uint64_t value = 0;  ///< payload for writes; scratch for reads
};

/// Result of serving one request through an application.
struct ServeOutcome {
  bool ok = false;     ///< routed and served (retries otherwise)
  bool found = false;  ///< reads: key was present
  std::uint64_t value = 0;
  sim::Round rounds = 0;  ///< pipeline latency consumed
};

/// Result of one reconfiguration epoch.
struct EpochOutcome {
  bool ok = false;
  sim::Round rounds = 0;  ///< communication rounds the epoch consumed
};

/// Adapter interface the driver pumps requests through; implementations for
/// the three Section 7 applications live in workload/adapters.hpp.
class AppAdapter {
 public:
  AppAdapter() = default;
  AppAdapter(const AppAdapter&) = delete;
  AppAdapter& operator=(const AppAdapter&) = delete;
  AppAdapter(AppAdapter&&) = delete;
  AppAdapter& operator=(AppAdapter&&) = delete;
  virtual ~AppAdapter() = default;

  /// Number of supernode groups (capacity is budgeted per group per round).
  [[nodiscard]] virtual std::size_t group_count() const = 0;
  /// Number of overlay nodes (the DoS adversary blocks node ids).
  [[nodiscard]] virtual std::size_t node_count() const = 0;
  /// Rounds a request pipeline spans: the driver keeps this many per-round
  /// blocked sets rolling.
  [[nodiscard]] virtual std::size_t pipeline_depth() const = 0;
  /// The group that owns this operation's key.
  [[nodiscard]] virtual std::uint64_t home_group(const Op& op) const = 0;
  /// Serves one request entering at `entry_group` under the rolling blocked
  /// window (blocked[i] = blocked set of pipeline round i).
  virtual ServeOutcome serve(const Op& op, std::uint64_t entry_group,
                             std::span<const sim::BlockedSet> blocked,
                             support::Rng& rng) = 0;
  /// Runs one reconfiguration epoch (membership churn + epoch attack).
  virtual EpochOutcome run_epoch(support::Rng& rng) = 0;
  /// Attaches the fault hook to the application's epoch wire traffic
  /// (request-leg faults are applied by the driver itself). Optional.
  virtual void set_fault_hook(sim::DeliveryHook* hook) { (void)hook; }
  /// Local value lookup for hot-key replication (no wire traffic). Returns
  /// false for applications without a readable store.
  virtual bool peek(std::uint64_t key, std::uint64_t& value) {
    (void)key;
    (void)value;
    return false;
  }
};

struct DriverConfig {
  /// Serving rounds to run (epoch rounds come on top of these).
  std::size_t rounds = 256;
  double write_fraction = 0.05;
  KeyDistConfig keys;
  ArrivalConfig arrivals;
  /// Requests one group can serve per round (saturation knee control).
  std::uint32_t per_group_capacity = 4;
  /// Serve/fault retries before a request counts as failed.
  std::uint32_t max_attempts = 3;
  /// Run a reconfiguration epoch every this many serving rounds (0 = never).
  std::size_t epoch_every = 0;
  /// Fraction of nodes the round-level DoS adversary blocks each round.
  double blocked_fraction = 0.0;
  /// Injected fault environment for request legs, epochs, and hot-key floods.
  fault::FaultPlan faults;
  MitigationConfig mitigation;
  /// Enforce request conservation every round (audit::ScopedEnable is still
  /// required for the checks to throw).
  bool audit = true;
};

/// Everything one workload run measures. All counts are exact and
/// deterministic; latencies are in virtual rounds.
struct WorkloadReport {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t in_flight = 0;  ///< still queued when the run ended
  std::uint64_t retries = 0;
  std::uint64_t fault_lost_legs = 0;  ///< request/response legs lost to faults
  std::uint64_t rounds = 0;           ///< virtual rounds (serving + epochs)
  std::uint64_t epoch_rounds = 0;
  std::uint64_t epochs_run = 0;
  std::uint64_t epochs_ok = 0;
  std::uint64_t max_queue = 0;
  double throughput = 0.0;  ///< completed per virtual round
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::uint64_t max_latency = 0;
  double mean_latency = 0.0;
  MitigationStats mitigation;
};

class WorkloadDriver {
 public:
  /// The adapter must outlive the driver.
  WorkloadDriver(DriverConfig config, AppAdapter* adapter);

  /// Runs the configured workload; `master` seeds every random stream.
  [[nodiscard]] WorkloadReport run(support::Rng& master);

 private:
  struct Pending {
    RequestId id = 0;
    Op op;
    std::uint32_t attempts = 0;
  };

  struct Streams;  // per-run Rng splits + fault injector (driver.cpp)

  void issue_arrivals(Streams& streams, sim::Round now);
  void run_serving_round(Streams& streams, sim::Round now);

  DriverConfig config_;
  AppAdapter* adapter_;

  // Per-run state, reset at the top of run(); members so the steady-state
  // serving round recycles every buffer (workload-driver-round hotpath).
  KeyDist keys_;
  ArrivalProcess arrivals_;
  RequestTracker tracker_;
  HotKeyMitigator mitigator_;
  std::vector<Pending> queue_;
  std::vector<sim::BlockedSet> window_;  ///< rolling per-round blocked sets
  std::vector<std::uint32_t> group_load_;
  std::vector<sim::Round> fate_;  ///< fault-hook scratch
  WorkloadReport report_;
};

/// Convenience: construct, run, report.
[[nodiscard]] WorkloadReport run_workload(const DriverConfig& config,
                                          AppAdapter& adapter,
                                          support::Rng& master);

}  // namespace reconfnet::workload
