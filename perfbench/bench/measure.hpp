// Measurement plumbing shared by the three benchmark workloads: wall clock,
// process memory and fault counters, an in-memory span tracer, and the
// report every workload fills in and main.cpp prints.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Options of one benchmark invocation (see main.cpp for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string trace_dir = ".bench_build";
};

/// Thrown when a workload's output fails a correctness check; main() turns
/// it into a non-zero exit without printing a result.
class CheckFailed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Throws CheckFailed with `what` unless `ok`.
void check(bool ok, const std::string& what);

/// Seconds on the monotonic clock.
[[nodiscard]] double now_s();

/// Peak resident set size of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Resets VmHWM to the current RSS through /proc/self/clear_refs.
void reset_peak_rss();

/// Process-wide counters from getrusage.
struct Usage {
  std::uint64_t minflt = 0;
  double sys_s = 0.0;
};
[[nodiscard]] Usage usage_now();

/// The statistic epoch_s reports over a run's per-unit wall times: the
/// interpolated lower quartile. Single units run long for two reasons: other
/// tenants of a shared host slow them, and some inputs need more work (a
/// churn-4k epoch that runs two sampling instances, a live table that falls
/// back once). With a handful of units per run these move the median from
/// run to run, while the lower quartile stays with the common, undisturbed
/// units.
[[nodiscard]] double lower_quartile(std::vector<double> values);

/// Whether a workload runs another timed unit: at least `min_units`, then
/// more until `seconds` have passed since `start`. With `seconds` 0 every
/// run makes exactly `min_units` units.
[[nodiscard]] bool more_units(const Options& options, int done, int min_units,
                              double start);

/// In-memory span recorder for the traced run. Each span has a name, start,
/// end, parent and epoch id; spans opened with `aggregate` are folded into
/// per-name totals instead of being stored (the per-request serve calls);
/// those must be leaves. A span's self time is its duration minus that of
/// its direct children.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, bool aggregate = false);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    Tracer* tracer_;
    int slot_ = -1;
  };

  /// Epoch id stamped on the spans opened from now on.
  void set_epoch(int epoch) { epoch_ = epoch; }

  /// Total duration and self time of every span named `name`.
  [[nodiscard]] double busy_s(const std::string& name) const;
  [[nodiscard]] double self_s(const std::string& name) const;
  [[nodiscard]] std::uint64_t calls(const std::string& name) const;

  /// Writes the stored spans (one per line) and the aggregated totals.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int epoch = 0;
    double children_s = 0.0;
    bool aggregate = false;
  };
  struct Totals {
    double busy_s = 0.0;
    double self_s = 0.0;
    std::uint64_t calls = 0;
  };

  int open(const char* name, bool aggregate);
  void close(int slot);

  std::vector<Span> spans_;  ///< stored spans; aggregated ones are recycled
  std::vector<int> stack_;   ///< open spans, innermost last
  std::vector<int> free_;    ///< recycled slots of closed aggregated spans
  std::map<std::string, Totals> totals_;
  int epoch_ = 0;
};

/// Opens a span when tracing (tracer != nullptr), else does nothing.
class MaybeScope {
 public:
  MaybeScope(Tracer* tracer, const char* name, bool aggregate = false) {
    if (tracer != nullptr) scope_.emplace(tracer, name, aggregate);
  }

 private:
  std::optional<Tracer::Scope> scope_;
};

/// What one workload invocation measured.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< the result line's metrics in this mode
  std::vector<Metric> extra;    ///< printed for people, not in the JSON line
  /// Deterministic outputs that must not depend on tracing, compared by
  /// perfbench/test_trace.py.
  std::map<std::string, std::string> fingerprint;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    extra.push_back({name, value, unit});
  }
};

/// Joins numbers into a comma-separated fingerprint entry.
template <typename T>
std::string join(const std::vector<T>& values) {
  std::string out;
  for (const auto& value : values) {
    if (!out.empty()) out += ',';
    out += std::to_string(value);
  }
  return out;
}

/// Seed of timed unit `unit` of a run with seed `seed`.
[[nodiscard]] std::uint64_t unit_seed(std::uint64_t seed, int unit);

/// FNV-1a over a sequence of 64-bit values.
[[nodiscard]] std::uint64_t fnv1a(const std::vector<std::uint64_t>& values);

Report run_churn(const Options& options);
Report run_live(const Options& options);
Report run_dht(const Options& options);

}  // namespace perfbench
