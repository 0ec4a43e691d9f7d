#include "support/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "support/percentiles.hpp"

namespace reconfnet::support {
namespace {

// Lower regularized incomplete gamma P(a, x) by series expansion; valid for
// x < a + 1.
double gamma_p_series(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  for (int n = 1; n < 1000; ++n) {
    term *= x / (a + n);
    sum += term;
    if (term < sum * 1e-15) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Upper regularized incomplete gamma Q(a, x) by continued fraction; valid for
// x >= a + 1.
double gamma_q_contfrac(double a, double x) {
  constexpr double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 1000; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

}  // namespace

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  s.min = sorted.front();
  s.max = sorted.back();
  s.mean = std::accumulate(sorted.begin(), sorted.end(), 0.0) /
           static_cast<double>(sorted.size());
  double sq = 0.0;
  for (double v : sorted) sq += (v - s.mean) * (v - s.mean);
  s.stddev = sorted.size() > 1
                 ? std::sqrt(sq / static_cast<double>(sorted.size() - 1))
                 : 0.0;
  s.p50 = percentile_sorted(sorted, 0.50);
  s.p95 = percentile_sorted(sorted, 0.95);
  s.p99 = percentile_sorted(sorted, 0.99);
  return s;
}

double regularized_gamma_q(double a, double x) {
  if (x < 0.0 || a <= 0.0) throw std::invalid_argument("gamma_q domain");
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_contfrac(a, x);
}

ChiSquareResult chi_square(std::span<const std::uint64_t> observed,
                           std::span<const double> expected) {
  if (observed.size() != expected.size() || observed.size() < 2) {
    throw std::invalid_argument("chi_square: need >=2 matching categories");
  }
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (expected[i] <= 0.0) {
      throw std::invalid_argument("chi_square: expected counts must be > 0");
    }
    const double diff = static_cast<double>(observed[i]) - expected[i];
    stat += diff * diff / expected[i];
  }
  ChiSquareResult r;
  r.statistic = stat;
  r.degrees_of_freedom = observed.size() - 1;
  r.p_value = regularized_gamma_q(
      static_cast<double>(r.degrees_of_freedom) / 2.0, stat / 2.0);
  return r;
}

ChiSquareResult chi_square_uniform(std::span<const std::uint64_t> observed) {
  const auto total = std::accumulate(observed.begin(), observed.end(),
                                     std::uint64_t{0});
  if (total == 0) throw std::invalid_argument("chi_square_uniform: no data");
  const double expected_each =
      static_cast<double>(total) / static_cast<double>(observed.size());
  std::vector<double> expected(observed.size(), expected_each);
  return chi_square(observed, expected);
}

double tv_distance_from_uniform(std::span<const std::uint64_t> observed) {
  const auto total = std::accumulate(observed.begin(), observed.end(),
                                     std::uint64_t{0});
  if (total == 0 || observed.empty()) return 0.0;
  const double uniform_p = 1.0 / static_cast<double>(observed.size());
  double tv = 0.0;
  for (auto count : observed) {
    const double p = static_cast<double>(count) / static_cast<double>(total);
    tv += std::abs(p - uniform_p);
  }
  return tv / 2.0;
}

double chernoff_upper_bound(double mu, double delta) {
  assert(mu >= 0.0 && delta > 0.0);
  return std::exp(-std::min(delta * delta, delta) * mu / 3.0);
}

double chernoff_lower_bound(double mu, double delta) {
  assert(mu >= 0.0 && delta > 0.0 && delta < 1.0);
  return std::exp(-delta * delta * mu / 2.0);
}

}  // namespace reconfnet::support
