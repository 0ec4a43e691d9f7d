#include "support/rng.hpp"

#include <numeric>

namespace reconfnet::support {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

Rng Rng::split(std::uint64_t stream_index) noexcept {
  // Mix the stream index into a fresh seed derived from this generator's
  // current state without consuming from the main stream more than once.
  std::uint64_t mix = next() ^ (0x9E3779B97F4A7C15ULL * (stream_index + 1));
  return Rng(splitmix64(mix));
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) noexcept {
  const auto range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                   below(range));
}

double Rng::uniform() noexcept {
  // 53 high bits scaled into [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::coin() noexcept { return (next() >> 63) != 0; }

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  shuffle(std::span<std::size_t>(perm));
  return perm;
}

}  // namespace reconfnet::support
