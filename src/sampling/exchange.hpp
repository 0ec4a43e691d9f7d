// The request/serve/accept exchange shared by Algorithms 1 and 2
// (DESIGN.md §4).
//
// Both rapid samplers run the same two-round iteration: every node sends its
// requests (Phase 2), every node answers each request it received with one
// response (Phase 3), and every node accepts the responses it received
// (Phase 4). The messages cross each round boundary through the delivery
// core (sim/delivery.hpp), with one inbox set per message kind on one round
// clock. Every node's messages are counted and put in its own send order, so
//   - requests reach a server in ascending sender order, then in send order;
//   - responses reach a requester in ascending responder order, then in the
//     requester's own send order.
// That is the inbox order of a sim::Bus the nodes send to in index order,
// so every per-node RNG draw and every output matches such a Bus run bit
// for bit (tests/exchange_test.cpp).
//
// Node ranges: a node's work in a phase reads only its own state and its own
// inbox, so every per-node pass runs over the core's W fixed node ranges,
// one task per range, and each node draws from its own RNG stream: every
// output is the same for any W. W is the number of CPUs the calling thread
// may run on, capped so that no range is smaller than kMinRangeNodes. It is
// 1 under a hook, which must see the messages in send order, and on a
// thread-pool worker, whose siblings already share the CPUs; the one range
// then runs inline. The pool lives for one run_exchange call. Storage that
// outlives a pass (per-node state, the inbox buffers) is allocated and freed
// only on the calling thread, so the workers never grow an allocator arena
// of their own.
//
// The response buffer keeps its capacity across rounds. The request buffer
// is freed as soon as Phase 3 has served it, before the samplers end Phase 3
// and build the multisets of Phase 4: iteration 1 sends the most requests
// (m_1 per node in Algorithm 1), and holding them through Phase 4 would add
// their size to the peak. The next Phase 2 allocates the buffer again, once.
//
// A copy a sim::DeliveryHook delays lands in a later round, which belongs
// to another phase: an odd delay puts it among messages of the other kind,
// an even one into a later iteration. Such a late copy is delivered and
// metered like any other, then discarded unused and counted, so a delay
// acts like a loss. Late copies therefore carry nothing through the delay
// queue, and no node is blocked when they land.
//
// Communication work: all messages of one sampler cost the same number of
// bits, so a node's work in a round is its sent plus received message count
// times that cost, exactly what sim::WorkMeter records for the Bus.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "sim/blocked.hpp"
#include "sim/delivery.hpp"
#include "sim/types.hpp"

namespace reconfnet::sampling {

/// Totals of one exchange run.
struct ExchangeStats {
  sim::Round rounds = 0;
  std::uint64_t max_node_bits_per_round = 0;
  /// Copies a fault hook delivered after their phase had ended (discarded).
  std::size_t late_copies = 0;
  /// Node ranges the run was split into (exchange_ranges); no other field
  /// depends on it.
  std::size_t ranges = 1;
};

/// The fewest nodes a range of its own is worth: below this, starting and
/// feeding a worker costs more than the range's share of a pass.
inline constexpr std::size_t kMinRangeNodes = 128;

/// Node ranges an exchange over `nodes` nodes runs on: one per CPU in the
/// calling thread's affinity mask, capped by nodes / kMinRangeNodes, and 1
/// under a hook or on a thread-pool worker.
inline std::size_t exchange_ranges(std::size_t nodes,
                                   const sim::DeliveryHook* hook) {
  if (hook != nullptr || runtime::ThreadPool::on_worker_thread()) return 1;
  return std::clamp<std::size_t>(nodes / kMinRangeNodes, 1,
                                 runtime::ThreadPool::hardware_workers());
}

/// One pass: calls body(range, v) for every node v, in ascending order
/// within its range [nodes*range/W, nodes*(range+1)/W), for W = `ranges`.
/// One range runs inline; several run as one parallel_for on `pool`.
template <typename Body>
void for_each_node(runtime::ThreadPool* pool, std::size_t nodes,
                   std::size_t ranges, const Body& body) {
  if (pool == nullptr) {
    for (std::size_t v = 0; v < nodes; ++v) body(std::size_t{0}, v);
    return;
  }
  runtime::parallel_for(*pool, ranges, [&](std::size_t range) {
    const std::size_t last = nodes * (range + 1) / ranges;
    for (std::size_t v = nodes * range / ranges; v < last; ++v) {
      body(range, v);
    }
  });
}

/// Runs a sampler over `nodes` nodes: Phase 1, then `iterations`
/// request/serve/accept iterations. The Sampler provides, for node v and
/// iteration i:
///   - types Request (with a `requester` member) and Response;
///   - allocate(v), then init(v): Phase 1's storage, then its draws;
///   - make_requests(v, i): Phase 2's draws;
///   - for_each_request(v, f): calls f(to, request) per request of v in
///     send order; the exchange calls it twice per iteration;
///   - serve(v, request, i) -> Response (Phase 3), then end_serve(v, i)
///     once every node has served;
///   - accept(v, response), then end_accept(v) (Phase 4).
/// allocate and end_serve run on the calling thread, so they may allocate
/// and free. Every other call runs in v's range, on any thread, and may
/// touch only v's own state, within capacity those two left.
/// Phase 4 of iteration i and Phase 2 of iteration i+1 share a round, so a
/// node makes its next requests right after accepting, while its multiset is
/// still in cache; each node draws from its own stream, so the draws are the
/// same as phase by phase.
template <typename Sampler>
ExchangeStats run_exchange(Sampler& sampler, std::size_t nodes,
                           int iterations, std::uint64_t bits_per_msg,
                           sim::DeliveryHook* hook) {
  using Request = typename Sampler::Request;
  using Response = typename Sampler::Response;
  struct Nothing {};  // what a late copy carries: the iteration rule drops it
  static const sim::BlockedSet kNone;
  ExchangeStats stats;
  stats.ranges = exchange_ranges(nodes, hook);
  sim::DeliveryCore<Nothing> core(stats.ranges, hook);
  std::optional<runtime::ThreadPool> pool;  // threads end with the exchange
  if (stats.ranges > 1) pool.emplace(stats.ranges);
  const auto each_node = [&](const auto& body) {
    for_each_node(pool ? &*pool : nullptr, nodes, stats.ranges, body);
  };
  sim::Inboxes<Request> requests;
  sim::Inboxes<Response> responses;
  std::vector<std::size_t> sent(nodes, 0);  // messages per node this round
  std::vector<std::size_t> late(stats.ranges, 0);  // per range
  std::size_t busiest = 0;  // most messages a node sent and received
  const auto count = [&](std::size_t range, std::size_t from, std::size_t to) {
    ++sent[from];
    core.count(range, from, to, Nothing{});
  };
  const auto close = [&](auto& box) {
    for (std::size_t v = 0; v < nodes; ++v) {
      busiest = std::max(busiest, sent[v] + (box.end(v) - box.begin(v)));
      sent[v] = 0;
    }
    core.close(box);
  };
  // Phase 1, and Phase 2's draws of the first iteration.
  for (std::size_t v = 0; v < nodes; ++v) sampler.allocate(v);
  each_node([&](std::size_t /*range*/, std::size_t v) {
    sampler.init(v);
    if (iterations > 0) sampler.make_requests(v, 1);
  });
  for (int i = 1; i <= iterations; ++i) {
    // Phase 2: every node sends its requests.
    core.open(nodes, kNone);
    each_node([&](std::size_t range, std::size_t v) {
      sampler.for_each_request(v, [&](std::size_t to, const Request&) {
        count(range, v, to);
      });
    });
    core.seal(requests, [](Nothing) { return Request{}; });
    each_node([&](std::size_t range, std::size_t v) {
      sampler.for_each_request(v, [&](std::size_t to, const Request& request) {
        core.put(range, requests, to, request);
      });
    });
    close(requests);

    // Phase 3: every node answers each request it received, in inbox order.
    core.open(nodes, kNone);
    each_node([&](std::size_t range, std::size_t v) {
      for (std::size_t k = requests.begin(v); k < requests.end(v); ++k) {
        if (!requests.is_late(k)) count(range, v, requests.slots[k].requester);
      }
    });
    core.seal(responses, [](Nothing) { return Response{}; });
    each_node([&](std::size_t range, std::size_t v) {
      for (std::size_t k = requests.begin(v); k < requests.end(v); ++k) {
        if (requests.is_late(k)) {
          ++late[range];
          continue;
        }
        const Request& request = requests.slots[k];
        core.put(range, responses, request.requester,
                 sampler.serve(v, request, i));
      }
    });
    close(responses);
    requests.release();
    for (std::size_t v = 0; v < nodes; ++v) sampler.end_serve(v, i);

    // Phase 4: every node accepts the responses it received, then draws
    // the next iteration's requests.
    each_node([&](std::size_t range, std::size_t v) {
      for (std::size_t k = responses.begin(v); k < responses.end(v); ++k) {
        if (responses.is_late(k)) {
          ++late[range];
          continue;
        }
        sampler.accept(v, responses.slots[k]);
      }
      sampler.end_accept(v);
      if (i < iterations) sampler.make_requests(v, i + 1);
    });
  }
  stats.rounds = core.round();
  stats.max_node_bits_per_round = busiest * bits_per_msg;
  for (const std::size_t copies : late) stats.late_copies += copies;
  return stats;
}

}  // namespace reconfnet::sampling
