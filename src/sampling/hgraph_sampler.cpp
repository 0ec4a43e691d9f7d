#include "sampling/hgraph_sampler.hpp"

#include <utility>

#include "sampling/exchange.hpp"

namespace reconfnet::sampling {

HGraphSamplerCore::HGraphSamplerCore(std::size_t self, Schedule schedule,
                                     support::Rng rng)
    : self_(static_cast<std::uint32_t>(self)),
      schedule_(std::move(schedule)),
      rng_(rng) {}

void HGraphSamplerCore::init(std::span<const std::uint32_t> neighbors) {
  m_.clear();
  m_.reserve(schedule_.m0());
  for (std::size_t j = 0; j < schedule_.m0(); ++j) {
    const auto port = static_cast<std::size_t>(rng_.below(neighbors.size()));
    m_.push_back({neighbors[port], 1});
  }
  live_ = m_.size();
}

bool HGraphSamplerCore::extract(WalkEntry& out) {
  if (live_ == 0) {
    ++dry_events_;
    return false;
  }
  const auto index = static_cast<std::size_t>(rng_.below(live_));
  --live_;
  std::swap(m_[index], m_[live_]);
  out = m_[live_];
  return true;
}

void HGraphSamplerCore::make_requests(int iteration) {
  const std::size_t count = schedule_.m[static_cast<std::size_t>(iteration)];
  WalkEntry entry;
  for (std::size_t j = 0; j < count; ++j) {
    if (!extract(entry)) break;
  }
}

HGraphSamplerCore::Response HGraphSamplerCore::serve(const Request& request) {
  WalkEntry entry;
  if (!extract(entry)) return {};
  // Splice: the requester's walk (ending here) continued by our walk.
  return {entry.vertex, request.requester_walk_length + entry.length};
}

void HGraphSamplerCore::discard_leftovers() {
  m_.clear();
  live_ = 0;
}

void HGraphSamplerCore::accept(const Response& response) {
  if (!response.ok()) {
    ++failed_responses_;
    return;
  }
  m_.push_back({response.vertex, response.length});
  live_ = m_.size();
}

void HGraphSamplerCore::shuffle_multiset() {
  rng_.shuffle(std::span<WalkEntry>(m_.data(), live_));
}

namespace {

/// The exchange's view of the cores. Phase 4 re-randomizes each multiset:
/// M is semantically unordered, but responses arrive ordered by responder
/// index and the endpoints correlate with the responder, and downstream
/// consumers take prefixes (e.g. Algorithm 3's sample pool).
struct HGraphCores {
  using Request = HGraphSamplerCore::Request;
  using Response = HGraphSamplerCore::Response;

  std::vector<HGraphSamplerCore>& cores;
  /// Every node's ports, `degree` per node.
  std::span<const std::uint32_t> neighbors;
  std::size_t degree;

  void init(std::size_t v) {
    cores[v].init(neighbors.subspan(v * degree, degree));
  }
  void make_requests(std::size_t v, int i) { cores[v].make_requests(i); }
  template <typename F>
  void for_each_request(std::size_t v, F&& f) const {
    cores[v].for_each_request(f);
  }
  Response serve(std::size_t v, const Request& request, int /*i*/) {
    return cores[v].serve(request);
  }
  void end_serve(std::size_t v, int /*i*/) { cores[v].discard_leftovers(); }
  void accept(std::size_t v, const Response& response) {
    cores[v].accept(response);
  }
  void end_accept(std::size_t v) { cores[v].shuffle_multiset(); }
};

}  // namespace

HGraphSamplingResult run_hgraph_sampling(const graph::HGraph& graph,
                                         const Schedule& schedule,
                                         support::Rng& rng,
                                         sim::DeliveryHook* fault_hook) {
  const std::size_t n = graph.size();
  // Kind bit plus one id (the requester for requests, the sampled endpoint
  // for responses); walk lengths are validation metadata and free.
  const std::uint64_t bits_per_msg = 1 + sim::id_bits(n - 1);

  // Every node's ports, read once: M_0 draws m_0 of them per node.
  const auto degree = static_cast<std::size_t>(graph.degree());
  std::vector<std::uint32_t> neighbors(n * degree);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t p = 0; p < degree; ++p) {
      neighbors[v * degree + p] = static_cast<std::uint32_t>(
          graph.neighbor(v, static_cast<int>(p)));
    }
  }
  std::vector<HGraphSamplerCore> cores;
  cores.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    cores.emplace_back(v, schedule, rng.split(v));
  }

  HGraphCores sampler{cores, neighbors, degree};
  const ExchangeStats stats = run_exchange(sampler, n, schedule.iterations,
                                           bits_per_msg, fault_hook);

  HGraphSamplingResult result;
  result.rounds = stats.rounds;
  result.max_node_bits_per_round = stats.max_node_bits_per_round;
  result.late_copies = stats.late_copies;
  result.samples.resize(n);
  result.walk_lengths.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    result.dry_events += cores[v].dry_events();
    const auto multiset = cores[v].multiset();
    result.samples[v].reserve(multiset.size());
    result.walk_lengths[v].reserve(multiset.size());
    for (const auto& entry : multiset) {
      result.samples[v].push_back(entry.vertex);
      result.walk_lengths[v].push_back(entry.length);
    }
  }
  result.success = result.dry_events == 0;
  return result;
}

}  // namespace reconfnet::sampling
