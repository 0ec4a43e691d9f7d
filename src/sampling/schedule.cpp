#include "sampling/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace reconfnet::sampling {

int ceil_log2(std::size_t x) {
  if (x == 0) throw std::invalid_argument("ceil_log2(0)");
  int bits = 0;
  std::size_t v = 1;
  while (v < x) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

SizeEstimate SizeEstimate::from_true_size(std::size_t n, int slack) {
  if (n < 4) throw std::invalid_argument("SizeEstimate: n too small");
  const double loglog = std::log2(std::log2(static_cast<double>(n)));
  const int k = static_cast<int>(std::ceil(loglog)) + slack;
  return SizeEstimate(std::max(k, 1));
}

namespace {

void validate(const SamplingConfig& config) {
  if (config.epsilon <= 0.0 || config.epsilon > 1.0) {
    throw std::invalid_argument("SamplingConfig: need 0 < epsilon <= 1");
  }
  if (config.alpha <= 0.0 || config.c <= 0.0 || config.beta <= 0.0) {
    throw std::invalid_argument("SamplingConfig: alpha, c, beta must be > 0");
  }
  if (config.c < config.beta) {
    throw std::invalid_argument("SamplingConfig: need c >= beta (Lemma 7)");
  }
}

Schedule build(int iterations, double base, double c, std::size_t log_n) {
  Schedule schedule;
  schedule.iterations = iterations;
  schedule.m.resize(static_cast<std::size_t>(iterations) + 1);
  for (int i = 0; i <= iterations; ++i) {
    const double size = std::pow(base, iterations - i) * c *
                        static_cast<double>(log_n);
    schedule.m[static_cast<std::size_t>(i)] =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(size)));
  }
  schedule.target_walk_length = std::size_t{1} << iterations;
  return schedule;
}

}  // namespace

Schedule hgraph_schedule(const SizeEstimate& est, int degree,
                         const SamplingConfig& config) {
  validate(config);
  if (degree < 6) {
    throw std::invalid_argument("hgraph_schedule: need degree >= 6");
  }
  const auto log_n = static_cast<double>(est.log_n_estimate());
  // Walk length t = ceil(2 alpha log_{d/4} n) (Lemma 2), with
  // log_{d/4} n = log2(n) / log2(d/4).
  const double log_base = std::log2(static_cast<double>(degree) / 4.0);
  const double walk_length =
      std::ceil(2.0 * config.alpha * log_n / log_base);
  const int t = ceil_log2(static_cast<std::size_t>(
      std::max(2.0, walk_length)));
  return build(t, 2.0 + config.epsilon, config.c, est.log_n_estimate());
}

Schedule hypercube_schedule(const SizeEstimate& est, int dimension,
                            const SamplingConfig& config) {
  validate(config);
  if (dimension < 1) {
    throw std::invalid_argument("hypercube_schedule: need dimension >= 1");
  }
  const int iterations = ceil_log2(static_cast<std::size_t>(dimension));
  return build(std::max(iterations, 1), 1.0 + config.epsilon, config.c,
               est.log_n_estimate());
}

Schedule group_schedule(const SizeEstimate& est, int dimension,
                        std::size_t max_group, SamplingConfig config) {
  const double needed_c = static_cast<double>(max_group + 1) /
                          static_cast<double>(est.log_n_estimate());
  config.c = std::max(config.c, needed_c);
  config.beta = std::min(config.beta, config.c);
  return hypercube_schedule(est, dimension, config);
}

}  // namespace reconfnet::sampling
