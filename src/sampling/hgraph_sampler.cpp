#include "sampling/hgraph_sampler.hpp"

#include <stdexcept>
#include <utility>

#include "sampling/exchange.hpp"

namespace reconfnet::sampling {

HGraphSamplerCore::HGraphSamplerCore(std::size_t self, Schedule schedule,
                                     support::Rng rng)
    : self_(static_cast<std::uint32_t>(self)),
      schedule_(std::move(schedule)),
      rng_(rng) {}

void HGraphSamplerCore::init(std::span<const std::uint32_t> neighbors) {
  if (neighbors.size() > 256) {  // one byte names a port
    throw std::invalid_argument(
        "HGraphSamplerCore::init: more than 256 ports");
  }
  port_coded_ = true;
  port_row_.assign(neighbors.begin(), neighbors.end());
  m_.clear();
  ports_.resize(schedule_.m0());
  for (auto& port : ports_) {
    port = static_cast<std::uint8_t>(rng_.below(neighbors.size()));
  }
  live_ = ports_.size();
}

bool HGraphSamplerCore::extract() {
  if (live_ == 0) {
    ++dry_events_;
    return false;
  }
  const auto index = static_cast<std::size_t>(rng_.below(live_));
  --live_;
  if (port_coded_) {
    std::swap(ports_[index], ports_[live_]);
  } else {
    std::swap(m_[index], m_[live_]);
  }
  return true;
}

void HGraphSamplerCore::make_requests(int iteration) {
  const std::size_t count = schedule_.m[static_cast<std::size_t>(iteration)];
  for (std::size_t j = 0; j < count; ++j) {
    if (!extract()) break;
  }
}

HGraphSamplerCore::Response HGraphSamplerCore::serve(const Request& request) {
  if (!extract()) return {};
  // Splice: the requester's walk (ending here) continued by our walk.
  const WalkEntry entry = at(live_);
  return {entry.vertex, request.requester_walk_length + entry.length};
}

void HGraphSamplerCore::discard_leftovers() {
  if (port_coded_) {
    // M_0 is spent. Every later M holds at most m_1 responses, one per
    // request of an iteration (schedules never grow).
    port_coded_ = false;
    std::vector<std::uint32_t>().swap(port_row_);
    std::vector<std::uint8_t>().swap(ports_);
    if (schedule_.m.size() > 1) m_.reserve(schedule_.m[1]);
  }
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
  if (port_coded_) {
    rng_.shuffle(std::span<std::uint8_t>(ports_.data(), live_));
  } else {
    rng_.shuffle(std::span<WalkEntry>(m_.data(), live_));
  }
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
  const graph::HGraph& graph;
  /// Port row scratch: init copies it into the core.
  std::vector<std::uint32_t> row;

  void init(std::size_t v) {
    for (std::size_t p = 0; p < row.size(); ++p) {
      row[p] = static_cast<std::uint32_t>(
          graph.neighbor(v, static_cast<int>(p)));
    }
    cores[v].init(row);
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

  std::vector<HGraphSamplerCore> cores;
  cores.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    cores.emplace_back(v, schedule, rng.split(v));
  }

  HGraphCores sampler{cores, graph,
                      std::vector<std::uint32_t>(
                          static_cast<std::size_t>(graph.degree()))};
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
