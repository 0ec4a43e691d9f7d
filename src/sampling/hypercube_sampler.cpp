#include "sampling/hypercube_sampler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sampling/exchange.hpp"

namespace reconfnet::sampling {

HypercubeSamplerCore::HypercubeSamplerCore(int dimension, std::uint64_t self,
                                           Schedule schedule)
    : dimension_(dimension), self_(self), schedule_(std::move(schedule)) {
  if (dimension < 1 || dimension > 62) {
    throw std::invalid_argument("HypercubeSamplerCore: bad dimension");
  }
  blocks_.resize(static_cast<std::size_t>(dimension));
}

void HypercubeSamplerCore::init(support::Rng& rng) {
  allocate();
  draw_initial(rng);
}

void HypercubeSamplerCore::allocate() {
  for (auto& block : blocks_) {
    block.clear();
    block.reserve(schedule_.m0());
  }
}

void HypercubeSamplerCore::draw_initial(support::Rng& rng) {
  for (int j = 1; j <= dimension_; ++j) {
    auto& block = blocks_[static_cast<std::size_t>(j - 1)];
    const std::uint64_t flipped = self_ ^ (std::uint64_t{1} << (j - 1));
    for (std::size_t k = 0; k < schedule_.m0(); ++k) {
      block.push_back(rng.coin() ? flipped : self_);
    }
  }
}

bool HypercubeSamplerCore::extract(int j, support::Rng& rng,
                                   std::uint64_t& out) {
  auto& block = blocks_[static_cast<std::size_t>(j - 1)];
  if (block.empty()) {
    ++dry_events_;
    return false;
  }
  const std::size_t index = static_cast<std::size_t>(rng.below(block.size()));
  out = block[index];
  block[index] = block.back();
  block.pop_back();
  return true;
}

std::vector<std::pair<std::uint64_t, HypercubeSamplerCore::Request>>
HypercubeSamplerCore::make_requests(int iteration, support::Rng& rng) {
  std::vector<std::pair<std::uint64_t, Request>> requests;
  requests.reserve(request_capacity());
  make_requests(iteration, rng, requests);
  return requests;
}

void HypercubeSamplerCore::make_requests(
    int iteration, support::Rng& rng,
    std::vector<std::pair<std::uint64_t, Request>>& out) {
  const int step = 1 << iteration;
  const int half = 1 << (iteration - 1);
  const std::size_t count = schedule_.m[static_cast<std::size_t>(iteration)];
  out.clear();
  for (int j = 1; j <= dimension_; j += step) {
    if (j + half > dimension_) continue;  // block already complete: keep it
    for (std::size_t k = 0; k < count; ++k) {
      std::uint64_t dest = 0;
      if (!extract(j, rng, dest)) break;
      // reconfnet-hotcheck: allow(RNH404) within the request_capacity()
      // the caller reserved
      out.emplace_back(dest, Request{self_, j});
    }
  }
}

std::size_t HypercubeSamplerCore::request_capacity() const {
  // m_i extractions from each block iteration i touches; extraction can run
  // dry, so an iteration may emit fewer.
  std::size_t most = 0;
  for (int i = 1; i <= schedule_.iterations; ++i) {
    const int step = 1 << i;
    const int half = 1 << (i - 1);
    std::size_t blocks = 0;
    for (int j = 1; j + half <= dimension_; j += step) ++blocks;
    most = std::max(most, blocks * schedule_.m[static_cast<std::size_t>(i)]);
  }
  return most;
}

HypercubeSamplerCore::Response HypercubeSamplerCore::serve(
    const Request& request, int iteration, support::Rng& rng) {
  const int partner = request.j + (1 << (iteration - 1));
  if (partner < 1 || partner > dimension_) return {0, 0, false};
  std::uint64_t vertex = 0;
  if (!extract(partner, rng, vertex)) return {0, request.j, false};
  // The extracted entry already carries our random window on top of our own
  // coordinates, which equal the requester's outside its window: the vertex
  // is the spliced walk endpoint as-is.
  return {vertex, request.j, true};
}

void HypercubeSamplerCore::discard_consumed(int iteration) {
  const int step = 1 << iteration;
  const int half = 1 << (iteration - 1);
  for (int j = 1; j <= dimension_; j += step) {
    const int partner = j + half;
    if (partner > dimension_) continue;
    blocks_[static_cast<std::size_t>(j - 1)].clear();
    blocks_[static_cast<std::size_t>(partner - 1)].clear();
  }
}

void HypercubeSamplerCore::accept(const Response& response,
                                  support::Rng& rng) {
  if (!response.ok) {
    ++failed_responses_;
    return;
  }
  // Online Fisher-Yates: append, then swap with a uniformly random slot.
  // Responses arrive ordered by their source supernode, and their values
  // correlate with that source, so positional order must be re-randomized
  // for prefix consumers (the group reorganization takes the first |R(x)|
  // samples).
  auto& block = blocks_[static_cast<std::size_t>(response.j - 1)];
  block.push_back(response.vertex);
  const std::size_t slot = static_cast<std::size_t>(rng.below(block.size()));
  std::swap(block[slot], block.back());
}

const std::vector<std::uint64_t>& HypercubeSamplerCore::samples() const {
  return blocks_[0];
}

const std::vector<std::uint64_t>& HypercubeSamplerCore::block(int j) const {
  return blocks_.at(static_cast<std::size_t>(j - 1));
}

void HypercubeSamplerCore::restore_blocks(
    std::vector<std::vector<std::uint64_t>> blocks) {
  if (blocks.size() != static_cast<std::size_t>(dimension_)) {
    throw std::invalid_argument(
        "HypercubeSamplerCore::restore_blocks: wrong block count");
  }
  blocks_ = std::move(blocks);
}

int HypercubeSamplerCore::window_width(int j, int iterations_done) const {
  const int nominal = 1 << iterations_done;
  return std::min(nominal, dimension_ - j + 1);
}

bool HypercubeSamplerCore::live_block(int j, int iterations_done) {
  const int step = 1 << iterations_done;
  return (j - 1) % step == 0;
}

namespace {

/// The exchange's view of the cores: each node's own Rng stream, and the
/// requests make_requests drew for the current iteration, in a buffer
/// allocate() sizes for the largest iteration.
struct HypercubeCores {
  using Request = HypercubeSamplerCore::Request;
  using Response = HypercubeSamplerCore::Response;

  std::vector<HypercubeSamplerCore>& cores;
  std::vector<support::Rng>& rngs;
  std::vector<std::vector<std::pair<std::uint64_t, Request>>> pending;

  void allocate(std::size_t v) {
    cores[v].allocate();
    pending[v].reserve(cores[v].request_capacity());
  }
  void init(std::size_t v) { cores[v].draw_initial(rngs[v]); }
  void make_requests(std::size_t v, int i) {
    cores[v].make_requests(i, rngs[v], pending[v]);
  }
  template <typename F>
  void for_each_request(std::size_t v, F&& f) const {
    for (const auto& [dest, request] : pending[v]) {
      f(static_cast<std::size_t>(dest), request);
    }
  }
  Response serve(std::size_t v, const Request& request, int i) {
    return cores[v].serve(request, i, rngs[v]);
  }
  void end_serve(std::size_t v, int i) { cores[v].discard_consumed(i); }
  void accept(std::size_t v, const Response& response) {
    cores[v].accept(response, rngs[v]);
  }
  void end_accept(std::size_t /*v*/) {}
};

}  // namespace

HypercubeSamplingResult run_hypercube_sampling(const graph::Hypercube& cube,
                                               const Schedule& schedule,
                                               support::Rng& rng) {
  const auto n = cube.size();
  // One id plus a block index plus a kind bit per message.
  const std::uint64_t bits_per_msg =
      1 + sim::id_bits(n - 1) +
      static_cast<std::uint64_t>(
          ceil_log2(static_cast<std::size_t>(cube.dimension())) + 1);

  std::vector<HypercubeSamplerCore> cores;
  std::vector<support::Rng> rngs;
  cores.reserve(n);
  rngs.reserve(n);
  for (std::uint64_t v = 0; v < n; ++v) {
    cores.emplace_back(cube.dimension(), v, schedule);
    rngs.push_back(rng.split(v));
  }

  HypercubeCores sampler{cores, rngs, {}};
  sampler.pending.resize(n);
  const ExchangeStats stats =
      run_exchange(sampler, static_cast<std::size_t>(n), schedule.iterations,
                   bits_per_msg, nullptr);

  HypercubeSamplingResult result;
  result.rounds = stats.rounds;
  result.max_node_bits_per_round = stats.max_node_bits_per_round;
  result.ranges = stats.ranges;
  result.samples.resize(n);
  for (std::uint64_t v = 0; v < n; ++v) {
    result.dry_events += cores[v].dry_events();
    result.samples[v] = cores[v].samples();
  }
  result.success = result.dry_events == 0;
  return result;
}

}  // namespace reconfnet::sampling
