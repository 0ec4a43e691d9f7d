// Deterministic, splittable pseudo-random number generation.
//
// Every protocol node in reconfnet owns an independent Rng split off a master
// seed, so simulation results are reproducible from a single 64-bit seed and
// independent of node iteration order.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace reconfnet::support {

/// SplitMix64 step: used for seeding and for deriving independent streams.
/// Passes through the full 64-bit state space; never returns the same value
/// twice for distinct inputs.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Pure draw in [0, 1) keyed by (salt, a, b): one splitmix64 step over the
/// mixed key, its 53 high bits mapped like Rng::uniform. Fault schedules use
/// it so that every query is independent of query order and of any stream.
inline double hash_unit(std::uint64_t salt, std::uint64_t a,
                        std::uint64_t b) noexcept {
  std::uint64_t state =
      salt ^ (a * 0x9E3779B97F4A7C15ULL) ^ (b * 0xD1B54A32D192ED03ULL);
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

/// xoshiro256++ generator. Small, fast, and of far higher quality than
/// std::minstd_rand; state is seeded via SplitMix64 so that any 64-bit seed
/// yields a well-mixed initial state.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator from a single 64-bit value.
  explicit Rng(std::uint64_t seed = 0xC0FFEE0DDF00DULL) noexcept;

  /// Derives an independent generator. Streams split from distinct indices of
  /// the same parent are statistically independent for simulation purposes.
  [[nodiscard]] Rng split(std::uint64_t stream_index) noexcept;

  /// Raw 64 random bits (xoshiro256++ step). Inline: the samplers draw
  /// tens of millions of values per epoch.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }
  /// UniformRandomBitGenerator interface so <random> distributions work too.
  result_type operator()() noexcept { return next(); }

  /// Uniform integer in [0, bound). Requires bound > 0. Uses Lemire's
  /// nearly-divisionless rejection method, so the result is exactly uniform.
  std::uint64_t below(std::uint64_t bound) noexcept {
    // Multiply-shift with rejection of the biased low range.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Fair coin flip.
  bool coin() noexcept;

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept;

  /// Fisher-Yates shuffle of the given span.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// A uniformly random permutation of {0, 1, ..., n-1}.
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace reconfnet::support
