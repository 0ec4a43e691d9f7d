// Multiset-size schedules for the rapid node sampling primitives (Section 3).
//
// Algorithm 1 (H-graphs) generates random walks of length >= ceil(2 alpha
// log_{d/4} n) by pointer doubling in T = ceil(log2(2 alpha log_{d/4} n))
// iterations with multiset sizes m_i = (2+eps)^{T-i} c log n (Lemma 7).
// Algorithm 2 (hypercube) uses I = ceil(log2 d) iterations with sizes
// m_i = (1+eps)^{I-i} c log n (Lemma 9).
//
// Nodes do not know n exactly; per Section 4 they hold an upper bound k on
// log log n precise up to an additive constant, which yields the estimate
// 2^k of log n. SizeEstimate models that oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace reconfnet::sampling {

/// The network-size knowledge the paper grants each node (Section 4): an
/// upper bound k on log log n with k - slack <= log log n <= k, from which
/// 2^k estimates log n up to a constant factor.
class SizeEstimate {
 public:
  /// Builds the oracle from the true size with the given additive slack on
  /// the log log scale (slack = 0 gives k = ceil(log log n)).
  static SizeEstimate from_true_size(std::size_t n, int slack = 0);

  /// Direct construction from k.
  explicit SizeEstimate(int k) : k_(k) {}

  /// The upper bound k on log log n.
  [[nodiscard]] int loglog_upper() const { return k_; }

  /// The derived estimate of log2 n (i.e. 2^k).
  [[nodiscard]] std::size_t log_n_estimate() const {
    return std::size_t{1} << k_;
  }

 private:
  int k_;
};

/// Parameters shared by both primitives; defaults follow the paper with
/// constants small enough for laptop-scale simulation.
struct SamplingConfig {
  double alpha = 1.0;    ///< walk length >= 2*alpha*log_{d/4} n (Lemma 2)
  double epsilon = 1.0;  ///< schedule slack, 0 < eps <= 1 (Lemmas 7/9)
  double c = 1.0;        ///< schedule constant, c >= beta
  double beta = 1.0;     ///< required samples per node: >= beta log n
};

/// A fully resolved schedule: number of doubling iterations and the multiset
/// sizes m_0 >= m_1 >= ... >= m_T.
struct Schedule {
  int iterations = 0;                ///< T (H-graph) or I (hypercube)
  std::vector<std::size_t> m;        ///< m[i] for i = 0..iterations
  std::size_t target_walk_length = 0;  ///< walks generated have length 2^T

  [[nodiscard]] std::size_t m0() const { return m.front(); }
  [[nodiscard]] std::size_t samples_out() const { return m.back(); }
};

/// Schedule for Algorithm 1 on a d-regular H-graph (d >= 6 so that the base
/// d/4 > 1; the paper uses d >= 8).
Schedule hgraph_schedule(const SizeEstimate& est, int degree,
                         const SamplingConfig& config);

/// Schedule for Algorithm 2 on a d-dimensional hypercube. The paper assumes
/// d = 2^k and runs log log n iterations; we generalize to any d >= 1 with
/// I = ceil(log2 d) (identical for d = 2^k).
Schedule hypercube_schedule(const SizeEstimate& est, int dimension,
                            const SamplingConfig& config);

/// Schedule for the group-level epoch of Section 5 on a d-dimensional
/// hypercube of supernodes. Its final phase sends the i-th member of R(x) to
/// the i-th sample of x, so every supernode needs more samples than the
/// largest group has members: c is raised to (max_group + 1) / log n where
/// that exceeds the configured c, and beta is clamped to beta <= c.
Schedule group_schedule(const SizeEstimate& est, int dimension,
                        std::size_t max_group, SamplingConfig config);

/// ceil(log2 x) for x >= 1.
int ceil_log2(std::size_t x);

}  // namespace reconfnet::sampling
