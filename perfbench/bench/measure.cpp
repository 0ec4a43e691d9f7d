#include "measure.hpp"

#include "support/percentiles.hpp"
#include "support/rng.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace perfbench {

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailed(what);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  throw CheckFailed("VmHWM missing from /proc/self/status");
}

void reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5\n";
  clear_refs.flush();
  check(clear_refs.good(), "cannot reset VmHWM through /proc/self/clear_refs");
}

Usage usage_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Usage out;
  out.minflt = static_cast<std::uint64_t>(usage.ru_minflt);
  out.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
              static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
  return out;
}

double lower_quartile(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return reconfnet::support::percentile_sorted(values, 0.25);
}

bool more_units(const Options& options, int done, int min_units,
                double start) {
  return done < min_units || now_s() - start < options.seconds;
}

std::uint64_t unit_seed(std::uint64_t seed, int unit) {
  std::uint64_t state =
      seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(unit + 1));
  return reconfnet::support::splitmix64(state);
}

std::uint64_t fnv1a(const std::vector<std::uint64_t>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (std::uint64_t value : values) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

// --- Tracer -----------------------------------------------------------------

Tracer::Scope::Scope(Tracer* tracer, const char* name, bool aggregate)
    : tracer_(tracer), slot_(tracer->open(name, aggregate)) {}

Tracer::Scope::~Scope() { tracer_->close(slot_); }

int Tracer::open(const char* name, bool aggregate) {
  int slot = 0;
  if (aggregate && !free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<int>(spans_.size());
    spans_.emplace_back();
  }
  Span& span = spans_[static_cast<std::size_t>(slot)];
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.epoch = epoch_;
  span.children_s = 0.0;
  span.aggregate = aggregate;
  stack_.push_back(slot);
  span.start = now_s();
  return slot;
}

void Tracer::close(int slot) {
  const double end = now_s();
  Span& span = spans_[static_cast<std::size_t>(slot)];
  span.end = end;
  stack_.pop_back();
  const double duration = span.end - span.start;
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].children_s += duration;
  }
  Totals& totals = totals_[span.name];
  totals.busy_s += duration;
  totals.self_s += duration - span.children_s;
  ++totals.calls;
  if (span.aggregate) free_.push_back(slot);
}

double Tracer::busy_s(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.busy_s;
}

double Tracer::self_s(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second.self_s;
}

std::uint64_t Tracer::calls(const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0 : it->second.calls;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << std::fixed << std::setprecision(6);
  out << "# span\tname\tstart_s\tend_s\tparent\tepoch\tself_s\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.aggregate) continue;
    out << i << '\t' << span.name << '\t' << span.start << '\t' << span.end
        << '\t' << span.parent << '\t' << span.epoch << '\t'
        << (span.end - span.start - span.children_s) << '\n';
  }
  out << "# totals\tname\tcalls\tbusy_s\tself_s\n";
  for (const auto& [name, totals] : totals_) {
    out << "total\t" << name << '\t' << totals.calls << '\t' << totals.busy_s
        << '\t' << totals.self_s << '\n';
  }
  check(out.good(), "cannot write the span file " + path);
}

}  // namespace perfbench
