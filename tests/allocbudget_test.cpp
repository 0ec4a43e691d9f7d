// Dynamic half of the hot-path allocation contract (the static half is
// reconfnet_hotcheck; see tools/hotcheck/hotcheck.hpp). The budgets live in
// tools/hotcheck/hotpaths.toml as [[budget]] entries, so the numbers the
// checker's spec declares are the numbers this binary enforces at runtime —
// editing a budget without keeping this suite green is caught in CI.
//
// This is the only binary that links reconfnet_alloccount (the counting
// operator new/delete replacement, src/support/alloc_counter.cpp); every
// other target keeps the toolchain allocator.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adversary/churn.hpp"
#include "churn/overlay.hpp"
#include "graph/hgraph.hpp"
#include "sampling/hgraph_sampler.hpp"
#include "sampling/schedule.hpp"
#include "tools/hotcheck/hotcheck.hpp"
#include "sim/bus.hpp"
#include "sim/types.hpp"
#include "support/alloc_counter.hpp"
#include "support/rng.hpp"
#include "transport/inproc.hpp"
#include "transport/udp.hpp"
#include "transport/wire.hpp"
#include "workload/adapters.hpp"
#include "workload/driver.hpp"

namespace reconfnet {
namespace {

// --- spec access ------------------------------------------------------------

const hotcheck::Spec& spec() {
  static const hotcheck::Spec kSpec = [] {
    std::ifstream in(RECONFNET_HOTPATHS_TOML, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << "cannot read " << RECONFNET_HOTPATHS_TOML;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    hotcheck::Spec parsed;
    std::string error;
    EXPECT_TRUE(hotcheck::parse_spec(buffer.str(), parsed, error)) << error;
    return parsed;
  }();
  return kSpec;
}

/// Fetches one integer key of one named [[budget]] entry; fails the test if
/// either is missing (budget drift must be loud, not silently unbounded).
std::uint64_t budget_value(const std::string& budget_name,
                           const std::string& key) {
  for (const hotcheck::BudgetSpec& budget : spec().budgets) {
    if (budget.name != budget_name) continue;
    auto it = budget.values.find(key);
    if (it == budget.values.end()) break;
    return std::stoull(it->second);
  }
  ADD_FAILURE() << "hotpaths.toml lacks budget " << budget_name << "." << key;
  return 0;
}

// --- harness sanity ---------------------------------------------------------

// Guards the link contract: if reconfnet_alloccount ever falls out of this
// binary, every budget below would pass vacuously on zero deltas.
TEST(AllocCounter, CountsAForcedAllocation) {
  ASSERT_TRUE(support::alloc_counting_available());
  support::AllocCounter scope;
  std::vector<int>* spill = new std::vector<int>(1024, 7);
  const support::AllocTotals mid = scope.delta();
  EXPECT_GE(mid.allocations, 2u);  // the vector object and its buffer
  EXPECT_GE(mid.bytes, 1024u * sizeof(int));
  delete spill;
  const support::AllocTotals done = scope.delta();
  EXPECT_GE(done.deallocations, 2u);
}

// The heap peak is a level, not a tally: it keeps the highest point after
// the blocks that set it are freed, and a new scope starts it over.
TEST(AllocCounter, PeakBytesOutliveTheBlocksThatSetThem) {
  ASSERT_TRUE(support::alloc_counting_available());
  const std::size_t size = 1 << 20;
  {
    support::AllocCounter scope;
    auto* block = new std::vector<char>(size, 1);
    EXPECT_GE(scope.peak_bytes(), size);
    delete block;
    EXPECT_GE(scope.peak_bytes(), size);
  }
  support::AllocCounter fresh;
  EXPECT_LT(fresh.peak_bytes(), size);
}

// --- bus steady state -------------------------------------------------------

struct PingPayload {
  std::uint64_t token = 0;
};

/// Deterministic steady-state traffic: every node sends one message to its
/// ring successor each round. After warmup every inbox and the outbox have
/// seen their peak occupancy, so a well-behaved bus recycles every buffer.
TEST(AllocBudget, BusSteadyStateRoundsAreAllocationFree) {
  ASSERT_TRUE(support::alloc_counting_available());
  const std::uint64_t n = budget_value("bus.steady_state", "n");
  const std::uint64_t warmup = budget_value("bus.steady_state", "warmup_rounds");
  const std::uint64_t rounds = budget_value("bus.steady_state", "rounds");
  const std::uint64_t budget =
      budget_value("bus.steady_state", "allocs_per_round");

  sim::Bus<PingPayload> bus;
  auto drive_round = [&](std::uint64_t round) {
    for (std::uint64_t v = 0; v < n; ++v) {
      // Touch the inbox first, as a protocol round would.
      (void)bus.inbox(static_cast<sim::NodeId>(v)).size();
      bus.send(static_cast<sim::NodeId>(v),
               static_cast<sim::NodeId>((v + 1) % n),
               PingPayload{round * n + v}, 64);
    }
    bus.step();
  };

  for (std::uint64_t r = 0; r < warmup; ++r) drive_round(r);

  support::AllocCounter scope;
  for (std::uint64_t r = 0; r < rounds; ++r) drive_round(warmup + r);
  const support::AllocTotals used = scope.delta();
  std::cout << "[ measured ] bus.steady_state: " << used.allocations
            << " allocations over " << rounds << " rounds (budget "
            << budget << "/round)\n";
  EXPECT_LE(used.allocations, budget * rounds)
      << "steady-state Bus rounds allocated " << used.allocations << " times ("
      << used.bytes << " bytes) over " << rounds << " rounds";
}

// --- churn overlay steady epoch ---------------------------------------------

/// A full overlay epoch at n=1024 with a zero-rate adversary: reconfiguration
/// runs (sampling, placement, rebuild) but membership is steady. The budget
/// bounds allocations per communication round; it is headroom over the
/// measured figure, not a tight pin — see EXPERIMENTS.md M2 for the numbers.
TEST(AllocBudget, ChurnOverlaySteadyEpochStaysUnderBudget) {
  ASSERT_TRUE(support::alloc_counting_available());
  const std::uint64_t n = budget_value("churn.steady_epoch", "n");
  const std::uint64_t warmup_epochs =
      budget_value("churn.steady_epoch", "warmup_epochs");
  const std::uint64_t epochs = budget_value("churn.steady_epoch", "epochs");
  const std::uint64_t budget =
      budget_value("churn.steady_epoch", "allocs_per_round");

  churn::ChurnOverlay::Config config;
  config.initial_size = static_cast<std::size_t>(n);
  config.seed = 0xB07C;
  churn::ChurnOverlay overlay(config);
  adversary::UniformChurn no_churn(0.0, 0.0, 1.0, support::Rng(7));

  for (std::uint64_t e = 0; e < warmup_epochs; ++e) {
    const auto report = overlay.run_epoch(no_churn);
    ASSERT_TRUE(report.success) << report.failure_reason;
  }

  support::AllocCounter scope;
  std::uint64_t measured_rounds = 0;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    const auto report = overlay.run_epoch(no_churn);
    ASSERT_TRUE(report.success) << report.failure_reason;
    measured_rounds += static_cast<std::uint64_t>(report.rounds);
  }
  ASSERT_GT(measured_rounds, 0u);
  const support::AllocTotals used = scope.delta();
  const std::uint64_t per_round = used.allocations / measured_rounds;
  std::cout << "[ measured ] churn.steady_epoch: " << per_round
            << " allocations/round over " << measured_rounds
            << " rounds (budget " << budget << "/round)\n";
  EXPECT_LE(per_round, budget)
      << "steady epochs allocated " << used.allocations << " times over "
      << measured_rounds << " rounds (" << per_round << "/round, budget "
      << budget << ")";
}

// --- Algorithm 1 peak heap --------------------------------------------------

/// One standalone run of Algorithm 1 at the schedule a churn epoch uses. M_0
/// is its largest multiset, stored as one port byte per entry, and the
/// exchange frees the request buffer before Phase 4, so the peak is iteration
/// 1's Phase 3: M_0, m_1 requests and m_1 responses per node. The budget is
/// in heap bytes per node, above the level at the call (the graph is built
/// before it).
TEST(AllocBudget, HGraphSamplingPeakHeapStaysUnderBudget) {
  ASSERT_TRUE(support::alloc_counting_available());
  const std::uint64_t n = budget_value("sampling.hgraph_peak", "n");
  const std::uint64_t degree = budget_value("sampling.hgraph_peak", "degree");
  const std::uint64_t c = budget_value("sampling.hgraph_peak", "c");
  const std::uint64_t budget =
      budget_value("sampling.hgraph_peak", "peak_bytes_per_node");
  ASSERT_GT(n, 0u);

  support::Rng rng(0x5A3);
  const auto g = graph::HGraph::random(static_cast<std::size_t>(n),
                                       static_cast<int>(degree), rng);
  sampling::SamplingConfig config;
  config.c = static_cast<double>(c);
  const auto schedule = sampling::hgraph_schedule(
      sampling::SizeEstimate::from_true_size(static_cast<std::size_t>(n)),
      static_cast<int>(degree), config);
  support::Rng run_rng = rng.split(1);

  support::AllocCounter scope;
  const auto result = sampling::run_hgraph_sampling(g, schedule, run_rng);
  const std::uint64_t per_node = scope.peak_bytes() / n;
  EXPECT_TRUE(result.success);
  std::cout << "[ measured ] sampling.hgraph_peak: " << per_node
            << " peak heap bytes/node at n=" << n << ", m_0=" << schedule.m0()
            << " (budget " << budget << ")\n";
  EXPECT_LE(per_node, budget)
      << "one run_hgraph_sampling call peaked at " << scope.peak_bytes()
      << " heap bytes over " << n << " nodes";
}

// --- transport heartbeat receive path ---------------------------------------

/// The per-datagram hot path of the live backend (udp-datagram-leaves
/// hotpath): heartbeats decode into recycled scratch and only touch the flat
/// liveness table, so once the scratch buffers have grown to steady size a
/// heartbeat datagram must allocate nothing. on_datagram is socket-free by
/// design, so the test feeds it raw crafted datagrams.
TEST(AllocBudget, TransportHeartbeatReceivePathIsAllocationFree) {
  ASSERT_TRUE(support::alloc_counting_available());
  const std::uint64_t nodes = budget_value("transport.receive_packet", "nodes");
  const std::uint64_t warmup =
      budget_value("transport.receive_packet", "warmup_packets");
  const std::uint64_t packets =
      budget_value("transport.receive_packet", "packets");
  const std::uint64_t budget =
      budget_value("transport.receive_packet", "allocs_per_packet");
  ASSERT_GE(nodes, 2u);

  transport::UdpConfig config;
  config.self = 0;
  config.nodes = static_cast<int>(nodes);
  transport::UdpTransport udp(config);  // never opened: no socket involved

  // One heartbeat per iteration, rotating over the peers; encode runs inside
  // the measured window too, so the codec's recycled buffers are pinned
  // along with the receive path.
  transport::Message msg;
  msg.kind = transport::MsgKind::kHeartbeat;
  std::vector<std::uint8_t> body;
  std::vector<std::uint8_t> datagram;
  auto feed = [&](std::uint64_t packet) {
    msg.round = static_cast<sim::Round>(packet);
    transport::encode(msg, body);
    transport::LinkHeader header;
    header.op = transport::LinkOp::kUnreliable;
    header.from = static_cast<sim::NodeId>(1 + packet % (nodes - 1));
    transport::encode_link_header(header, datagram);
    datagram.insert(datagram.end(), body.begin(), body.end());
    EXPECT_TRUE(udp.on_datagram(datagram, static_cast<std::int64_t>(packet)));
  };

  for (std::uint64_t p = 0; p < warmup; ++p) feed(p);

  support::AllocCounter scope;
  for (std::uint64_t p = 0; p < packets; ++p) feed(warmup + p);
  const support::AllocTotals used = scope.delta();
  std::cout << "[ measured ] transport.receive_packet: " << used.allocations
            << " allocations over " << packets << " heartbeats (budget "
            << budget << "/packet)\n";
  EXPECT_LE(used.allocations, budget * packets)
      << "warm heartbeat datagrams allocated " << used.allocations
      << " times (" << used.bytes << " bytes) over " << packets << " packets";
  EXPECT_EQ(udp.counters().heartbeats_received, warmup + packets);
  EXPECT_EQ(udp.counters().decode_failures, 0u);
}

// --- in-process hub steady state --------------------------------------------

/// The in-process frame path (inproc-hub-* and inproc-endpoint hotpaths):
/// every node polls its inbox and sends kSuper frames, each to the next few
/// nodes on the ring through one list send. Once the frame arenas, the bus
/// buffers and the inbox have grown to the round's size, a frame — encoded
/// into the arena once, stepped, decoded in poll at every destination —
/// allocates nothing. The work meter's history gains one entry per round,
/// so the budget is per frame over the whole window.
TEST(AllocBudget, InprocHubSteadySuperRoundsAreAllocationFree) {
  ASSERT_TRUE(support::alloc_counting_available());
  const std::uint64_t nodes = budget_value("transport.inproc_round", "nodes");
  const std::uint64_t frames =
      budget_value("transport.inproc_round", "frames_per_node");
  const std::uint64_t fanout =
      budget_value("transport.inproc_round", "destinations_per_frame");
  const std::uint64_t warmup =
      budget_value("transport.inproc_round", "warmup_rounds");
  const std::uint64_t rounds = budget_value("transport.inproc_round", "rounds");
  const std::uint64_t budget =
      budget_value("transport.inproc_round", "allocs_per_frame");
  ASSERT_GT(nodes, frames + fanout);

  transport::InprocHub hub({}, 0);
  std::vector<std::unique_ptr<transport::InprocTransport>> endpoints;
  for (std::uint64_t v = 0; v < nodes; ++v) {
    endpoints.push_back(std::make_unique<transport::InprocTransport>(
        &hub, static_cast<sim::NodeId>(v)));
  }
  transport::Message msg;
  msg.kind = transport::MsgKind::kSuper;
  msg.super.is_request = true;
  std::vector<sim::Envelope<transport::Message>> inbox;
  std::vector<sim::NodeId> to(fanout);
  std::uint64_t received = 0;
  auto drive_round = [&](std::uint64_t round) {
    msg.round = static_cast<sim::Round>(round);
    for (std::uint64_t v = 0; v < nodes; ++v) {
      endpoints[v]->poll(inbox);  // replaces the inbox, recycling its entries
      received += inbox.size();
      for (std::uint64_t f = 0; f < frames; ++f) {
        msg.super.index = static_cast<std::uint32_t>(f);
        for (std::uint64_t k = 0; k < fanout; ++k) {
          to[k] = static_cast<sim::NodeId>((v + 1 + f + k) % nodes);
        }
        endpoints[v]->send(to, msg);
      }
    }
    hub.step();
  };

  for (std::uint64_t r = 0; r < warmup; ++r) drive_round(r);

  support::AllocCounter scope;
  for (std::uint64_t r = 0; r < rounds; ++r) drive_round(warmup + r);
  const support::AllocTotals used = scope.delta();
  const std::uint64_t sent = rounds * nodes * frames;
  std::cout << "[ measured ] transport.inproc_round: " << used.allocations
            << " allocations over " << sent << " frames to " << fanout
            << " destinations each (budget " << budget << "/frame)\n";
  EXPECT_LE(used.allocations / sent, budget)
      << "warm in-process rounds allocated " << used.allocations
      << " times (" << used.bytes << " bytes) over " << sent << " frames";
  EXPECT_EQ(received, (warmup + rounds - 1) * nodes * frames * fanout);
}

// --- workload steady state --------------------------------------------------

/// Allocations of one full workload run at the given round count (setup
/// included); the steady-state figure is the difference between two run
/// lengths, which cancels the identical construction/reset costs.
std::uint64_t workload_run_allocations(std::uint64_t total_rounds,
                                       std::uint64_t n, std::uint64_t keyspace,
                                       double rate) {
  workload::DhtAdapterConfig adapter_config;
  adapter_config.size = static_cast<std::size_t>(n);
  adapter_config.prefill_keys = keyspace;
  adapter_config.seed = 0xA110C;
  workload::DhtAdapter adapter(adapter_config);
  workload::DriverConfig config;
  config.rounds = static_cast<std::size_t>(total_rounds);
  config.write_fraction = 0.0;  // reads only: shard writes may rehash
  config.keys.keyspace = keyspace;
  config.arrivals.rate = rate;
  config.audit = false;
  workload::WorkloadDriver driver(config, &adapter);
  support::Rng master(0xA110C);
  support::AllocCounter scope;
  const auto report = driver.run(master);
  EXPECT_GT(report.completed, 0u);
  return scope.delta().allocations;
}

/// The per-request serving path (workload-driver-rounds, workload-tracker-
/// leaves, workload-keydist-leaves hotpaths): once the queue, tracker pool
/// and histogram have warmed up, extending a run by more serving rounds must
/// allocate nothing — the budget pins the marginal cost at zero.
TEST(AllocBudget, WorkloadSteadyRequestRoundsAreAllocationFree) {
  ASSERT_TRUE(support::alloc_counting_available());
  const std::uint64_t n = budget_value("workload.steady_request", "n");
  const std::uint64_t keyspace =
      budget_value("workload.steady_request", "keyspace");
  const std::uint64_t warmup =
      budget_value("workload.steady_request", "warmup_rounds");
  const std::uint64_t rounds = budget_value("workload.steady_request", "rounds");
  const auto rate = static_cast<double>(
      budget_value("workload.steady_request", "requests_per_round"));
  const std::uint64_t budget =
      budget_value("workload.steady_request", "allocs_per_round");

  const std::uint64_t base = workload_run_allocations(warmup, n, keyspace, rate);
  const std::uint64_t full =
      workload_run_allocations(warmup + rounds, n, keyspace, rate);
  ASSERT_GE(full, base);  // both runs share an identical setup prefix
  const std::uint64_t marginal = full - base;
  std::cout << "[ measured ] workload.steady_request: " << marginal
            << " allocations over " << rounds << " extra rounds (budget "
            << budget << "/round)\n";
  EXPECT_LE(marginal, budget * rounds)
      << "extending a workload run by " << rounds << " rounds allocated "
      << marginal << " times";
}

}  // namespace
}  // namespace reconfnet
