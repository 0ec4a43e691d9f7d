// Statistical tooling used by the validation suite: goodness-of-fit tests for
// "samples are (almost) uniform" claims (Lemmas 2/3, 10), total-variation
// distance, and summary statistics for the bench tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace reconfnet::support {

/// Summary statistics of a sample of doubles.
struct Summary {
  std::size_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;  ///< Sample standard deviation (n-1 denominator).
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Computes summary statistics; empty input yields a zeroed Summary.
Summary summarize(std::span<const double> values);

/// Result of a chi-square goodness-of-fit test against given expected counts.
struct ChiSquareResult {
  double statistic = 0.0;
  std::size_t degrees_of_freedom = 0;
  double p_value = 1.0;  ///< Upper tail: Pr[X >= statistic] under H0.
};

/// Chi-square test of observed counts against uniform expected counts.
/// Requires at least two categories and a positive total count.
ChiSquareResult chi_square_uniform(std::span<const std::uint64_t> observed);

/// Chi-square test against arbitrary expected counts (same length, positive).
ChiSquareResult chi_square(std::span<const std::uint64_t> observed,
                           std::span<const double> expected);

/// Total variation distance between the empirical distribution induced by
/// `observed` counts and the uniform distribution over the same categories.
/// Result is in [0, 1]; 0 means exactly uniform.
double tv_distance_from_uniform(std::span<const std::uint64_t> observed);

/// Upper regularized incomplete gamma function Q(a, x) = Γ(a,x)/Γ(a),
/// used for chi-square p-values. Accurate to ~1e-10 for the ranges we need.
double regularized_gamma_q(double a, double x);

/// Chernoff upper-tail bound from Lemma 1 of the paper:
/// Pr[X >= (1+delta) mu] <= exp(-min(delta^2, delta) * mu / 3).
double chernoff_upper_bound(double mu, double delta);

/// Chernoff lower-tail bound from Lemma 1: for 0 < delta < 1,
/// Pr[X <= (1-delta) mu] <= exp(-delta^2 mu / 2).
double chernoff_lower_bound(double mu, double delta);

}  // namespace reconfnet::support
