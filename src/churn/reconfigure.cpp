#include "churn/reconfigure.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "churn/active_search.hpp"
#include "fault/reliable_channel.hpp"
#include "sampling/hgraph_sampler.hpp"
#include "sampling/plain_walk.hpp"
#include "sim/bus.hpp"
#include "sim/metrics.hpp"

namespace reconfnet::churn {
namespace {

/// Phase 1 wire format: place `id` into cycle `cycle` at the receiver.
struct PlaceMsg {
  int cycle = 0;
  sim::NodeId id = sim::kNoNode;
};

/// Phase 3 wire format: boundary element exchanged between active neighbors.
struct BoundaryMsg {
  int cycle = 0;
  bool from_predecessor = false;  ///< true: sender is our closest active pred
  sim::NodeId id = sim::kNoNode;
};

/// Phase 4 wire format: the placed id's new neighbors in `cycle`.
struct NeighborMsg {
  int cycle = 0;
  sim::NodeId pred = sim::kNoNode;
  sim::NodeId succ = sim::kNoNode;
};

ReconfigResult fail(std::string reason, sim::Round rounds,
                    std::uint64_t work) {
  ReconfigResult result;
  result.success = false;
  result.failure_reason = std::move(reason);
  result.rounds = rounds;
  result.max_node_bits_per_round = work;
  return result;
}

/// Drives one reliable phase to quiescence: step, drain every receiver's
/// inbox, repeat until no send awaits an ack or the budget is spent, then
/// flush any acks still queued so the shared WorkMeter's per-round accounts
/// balance. Undelivered data past the budget is simply lost; the assembly
/// validation downstream turns that into the usual epoch failure.
template <typename Payload, typename OnReceive>
sim::Round settle(fault::ReliableChannel<Payload>& channel,
                  const std::vector<sim::NodeId>& receivers,
                  sim::Round budget, OnReceive&& on_receive) {
  sim::Round used = 0;
  while (true) {
    channel.step();
    ++used;
    for (const sim::NodeId node : receivers) {
      for (auto& envelope : channel.receive(node)) {
        on_receive(envelope.to, std::move(envelope.payload));
      }
    }
    if (channel.pending_count() == 0 || used >= budget) break;
  }
  if (channel.queued() > 0) {
    channel.step();
    ++used;
  }
  return used;
}

/// Runs one of the one-round phases (1, 3b, 4) over the one transport the
/// epoch uses: sends(link) issues the phase's messages through
/// link.send(from, to, msg, bits), and on_receive(to, msg) sees every
/// delivery. A bare epoch steps one Bus once and reads the inboxes of
/// `receivers` in their order. A reliable epoch settles a ReliableChannel
/// over the sorted union of `receivers` and the old members' indices, where
/// the acks land. Returns the rounds spent.
template <typename Msg, typename Sends, typename OnReceive>
sim::Round run_phase(const ReconfigInput& input, std::size_t n,
                     sim::WorkMeter& meter,
                     const std::vector<sim::NodeId>& receivers,
                     const Sends& sends, const OnReceive& on_receive) {
  if (input.reliable_settle_rounds > 0) {
    fault::ReliableChannel<Msg> channel(&meter, input.fault_hook);
    sends(channel);
    std::vector<sim::NodeId> drained(n);
    for (std::size_t v = 0; v < n; ++v) drained[v] = v;
    drained.insert(drained.end(), receivers.begin(), receivers.end());
    std::sort(drained.begin(), drained.end());
    drained.erase(std::unique(drained.begin(), drained.end()), drained.end());
    return settle(channel, drained, input.reliable_settle_rounds, on_receive);
  }
  sim::Bus<Msg> bus(&meter);
  bus.set_fault_hook(input.fault_hook);
  sends(bus);
  bus.step();
  for (const sim::NodeId node : receivers) {
    for (const auto& envelope : bus.inbox(node)) {
      on_receive(node, envelope.payload);
    }
  }
  return 1;
}

}  // namespace

ReconfigResult reconfigure(const ReconfigInput& input, support::Rng& rng) {
  const auto& graph = *input.topology;
  const std::size_t n = graph.size();
  const int cycles = graph.num_cycles();
  const std::uint64_t node_id_bits = 64;  // overlay ids on the wire

  // Which ids does each old node place? Its own (unless leaving) plus every
  // joiner introduced to it.
  std::vector<std::vector<sim::NodeId>> placements(n);
  std::size_t total_placed = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!input.leaving[v]) placements[v].push_back(input.members[v]);
    for (sim::NodeId joiner : input.joiners[v]) {
      placements[v].push_back(joiner);
    }
    total_placed += placements[v].size();
  }
  if (total_placed < 3) {
    return fail("fewer than 3 nodes would remain", 0, 0);
  }

  sim::WorkMeter meter;
  sim::Round rounds = 0;
  std::uint64_t max_bits = 0;

  // --- Rapid node sampling (input to Phase 1) -----------------------------
  // Each node needs one sample per (cycle, placed id). A single primitive
  // execution yields samples_out() samples per node; the paper runs
  // polylogarithmically many instances in parallel, so we run as many
  // instances as the heaviest-loaded node requires and charge rounds once
  // (the instances share rounds) while summing their communication work.
  const auto schedule =
      sampling::hgraph_schedule(input.estimate, graph.degree(), input.sampling);
  std::size_t max_needed = 0;
  for (std::size_t v = 0; v < n; ++v) {
    max_needed = std::max(max_needed, placements[v].size() *
                                          static_cast<std::size_t>(cycles));
  }
  const std::size_t instances =
      (max_needed + schedule.samples_out() - 1) / schedule.samples_out();

  std::vector<std::vector<std::size_t>> sample_pool(n);
  sim::Round sampling_rounds = 0;
  if (input.use_plain_walk_sampling) {
    // Ablation baseline: one batch of plain walks of the Lemma 2 mixing
    // length delivers the same almost-uniform samples in Theta(log n)
    // rounds.
    const auto walk_length = sampling::hgraph_mixing_walk_length(
        input.estimate.log_n_estimate() > 1
            ? (std::size_t{1} << input.estimate.log_n_estimate())
            : 4,
        graph.degree(), input.sampling.alpha);
    auto walk_rng = rng.split(0x77);
    const auto run = sampling::run_hgraph_plain_walks(
        graph, std::max<std::size_t>(max_needed, 1), walk_length, walk_rng);
    sampling_rounds = run.rounds;
    max_bits += run.max_node_bits_per_round;
    for (std::size_t v = 0; v < n; ++v) {
      for (auto sample : run.samples[v]) {
        sample_pool[v].push_back(static_cast<std::size_t>(sample));
      }
    }
  } else {
    for (std::size_t instance = 0; instance < instances; ++instance) {
      auto instance_rng = rng.split(instance);
      const auto run =
          run_hgraph_sampling(graph, schedule, instance_rng, input.fault_hook);
      sampling_rounds = std::max(sampling_rounds, run.rounds);
      max_bits += run.max_node_bits_per_round;  // parallel instances add up
      if (!run.success) {
        return fail("rapid node sampling ran dry", run.rounds, max_bits);
      }
      for (std::size_t v = 0; v < n; ++v) {
        sample_pool[v].insert(sample_pool[v].end(), run.samples[v].begin(),
                              run.samples[v].end());
      }
    }
  }
  rounds += sampling_rounds;

  // Old members' indices: the senders of every one-round phase, and the
  // receivers of Phases 1 and 3b.
  std::vector<sim::NodeId> indices(n);
  for (std::size_t v = 0; v < n; ++v) indices[v] = v;

  // --- Phase 1: send ids to sampled targets (one round bare; a reliable
  // epoch spends settle rounds collecting acks) -----------------------------
  for (std::size_t v = 0; v < n; ++v) {
    if (placements[v].size() * static_cast<std::size_t>(cycles) >
        sample_pool[v].size()) {
      return fail("sample pool exhausted", rounds, max_bits);
    }
  }
  std::vector<std::vector<PlaceMsg>> place_msgs(n);
  rounds += run_phase<PlaceMsg>(
      input, n, meter, indices,
      [&](auto& link) {
        for (std::size_t v = 0; v < n; ++v) {
          std::size_t cursor = 0;
          for (int c = 0; c < cycles; ++c) {
            for (sim::NodeId id : placements[v]) {
              const std::size_t target = sample_pool[v][cursor++];
              link.send(v, target, PlaceMsg{c, id},
                        node_id_bits + sim::id_bits(n - 1));
            }
          }
        }
      },
      [&](sim::NodeId to, const PlaceMsg& msg) {
        place_msgs[static_cast<std::size_t>(to)].push_back(msg);
      });

  // --- Phase 2: collect and permute (local) --------------------------------
  // permuted[c][v] = the permutation (u_1, ..., u_m) held by node v.
  std::vector<std::vector<std::vector<sim::NodeId>>> permuted(
      static_cast<std::size_t>(cycles));
  for (auto& per_cycle : permuted) per_cycle.resize(n);
  std::vector<CycleStats> cycle_stats(static_cast<std::size_t>(cycles));
  for (std::size_t v = 0; v < n; ++v) {
    auto node_rng = rng.split(0x1000000 + v);
    for (const PlaceMsg& msg : place_msgs[v]) {
      permuted[static_cast<std::size_t>(msg.cycle)][v].push_back(msg.id);
    }
    for (int c = 0; c < cycles; ++c) {
      auto& bucket = permuted[static_cast<std::size_t>(c)][v];
      node_rng.shuffle(std::span<sim::NodeId>(bucket));
      auto& stats = cycle_stats[static_cast<std::size_t>(c)];
      if (!bucket.empty()) {
        ++stats.active_nodes;
        stats.max_times_chosen =
            std::max(stats.max_times_chosen, bucket.size());
      }
    }
  }

  // --- Phase 3a: closest-active-neighbor search (pointer doubling) ---------
  // All cycles search in parallel; rounds are the max over cycles, work
  // accumulates in the shared meter.
  std::vector<ActiveSearchResult> searches;
  searches.reserve(static_cast<std::size_t>(cycles));
  sim::Round search_rounds = 0;
  // Fully overwritten per cycle, so one buffer serves every iteration.
  std::vector<std::size_t> cycle_succ(n);
  std::vector<bool> cycle_active(n);
  for (int c = 0; c < cycles; ++c) {
    for (std::size_t v = 0; v < n; ++v) {
      cycle_succ[v] = graph.succ(c, v);
      cycle_active[v] = !permuted[static_cast<std::size_t>(c)][v].empty();
    }
    auto search =
        find_active_neighbors(cycle_succ, cycle_active,
                              input.active_search_steps, &meter,
                              input.fault_hook);
    if (!search.success) {
      return fail("active-neighbor search exhausted its budget",
                  rounds + search.rounds, max_bits);
    }
    cycle_stats[static_cast<std::size_t>(c)].max_empty_segment =
        search.max_empty_segment;
    search_rounds = std::max(search_rounds, search.rounds);
    searches.push_back(std::move(search));
  }
  rounds += search_rounds;

  // --- Phase 3b: exchange boundary elements (one round) --------------------
  std::vector<std::vector<sim::NodeId>> u0(static_cast<std::size_t>(cycles)),
      u_next(static_cast<std::size_t>(cycles));
  for (auto& per_cycle : u0) per_cycle.assign(n, sim::kNoNode);
  for (auto& per_cycle : u_next) per_cycle.assign(n, sim::kNoNode);
  rounds += run_phase<BoundaryMsg>(
      input, n, meter, indices,
      [&](auto& link) {
        for (int c = 0; c < cycles; ++c) {
          const auto& search = searches[static_cast<std::size_t>(c)];
          for (std::size_t v = 0; v < n; ++v) {
            const auto& bucket = permuted[static_cast<std::size_t>(c)][v];
            if (bucket.empty()) continue;
            // Our u_m goes to the closest active successor (as their u_0);
            // our u_1 goes to the closest active predecessor (as their
            // u_{m+1}).
            link.send(v, search.next_active[v],
                      BoundaryMsg{c, true, bucket.back()}, node_id_bits);
            link.send(v, search.prev_active[v],
                      BoundaryMsg{c, false, bucket.front()}, node_id_bits);
          }
        }
      },
      [&](sim::NodeId to, const BoundaryMsg& msg) {
        const auto c = static_cast<std::size_t>(msg.cycle);
        const auto v = static_cast<std::size_t>(to);
        if (msg.from_predecessor) {
          u0[c][v] = msg.id;
        } else {
          u_next[c][v] = msg.id;
        }
      });

  // The new membership (deterministic placement order) is known before
  // Phase 4 runs; building the index here lets Phase 4 bucket deliveries by
  // new index as they arrive. The index maps arbitrary
  // (sparse) surviving ids to dense new indices, so it cannot itself be an
  // index-addressed table; it is built and queried once per reconfiguration,
  // not per round.
  std::unordered_map<sim::NodeId, std::size_t> new_index;
  std::vector<sim::NodeId> new_members;
  std::size_t placed_count = 0;
  for (std::size_t v = 0; v < n; ++v) placed_count += placements[v].size();
  new_members.reserve(placed_count);
  for (std::size_t v = 0; v < n; ++v) {
    for (sim::NodeId id : placements[v]) {
      // reconfnet-hotcheck: allow(RNH403) per-reconfiguration sparse-id remap
      if (!new_index.emplace(id, new_members.size()).second) {
        return fail("duplicate id placement", rounds, max_bits);
      }
      new_members.push_back(id);
    }
  }
  const std::size_t new_n = new_members.size();

  // --- Phase 4: tell every placed id its new neighbors (one round) ---------
  for (int c = 0; c < cycles; ++c) {
    const auto cs = static_cast<std::size_t>(c);
    for (std::size_t v = 0; v < n; ++v) {
      if (permuted[cs][v].empty()) continue;
      if (u0[cs][v] == sim::kNoNode || u_next[cs][v] == sim::kNoNode) {
        return fail("missing boundary element", rounds, max_bits);
      }
    }
  }
  std::vector<std::vector<NeighborMsg>> neighbor_msgs(new_n);
  rounds += run_phase<NeighborMsg>(
      input, n, meter, new_members,
      [&](auto& link) {
        for (int c = 0; c < cycles; ++c) {
          const auto cs = static_cast<std::size_t>(c);
          for (std::size_t v = 0; v < n; ++v) {
            const auto& bucket = permuted[cs][v];
            for (std::size_t i = 0; i < bucket.size(); ++i) {
              const sim::NodeId pred = (i == 0) ? u0[cs][v] : bucket[i - 1];
              const sim::NodeId succ =
                  (i + 1 == bucket.size()) ? u_next[cs][v] : bucket[i + 1];
              link.send(v, bucket[i], NeighborMsg{c, pred, succ},
                        2 * node_id_bits);
            }
          }
        }
      },
      [&](sim::NodeId to, const NeighborMsg& msg) {
        // reconfnet-hotcheck: allow(RNH403) sparse-id remap
        const auto it = new_index.find(to);
        if (it != new_index.end()) neighbor_msgs[it->second].push_back(msg);
      });

  // --- Assemble and validate the new topology ------------------------------
  // Each id fills its own successor-table cells from the Phase 4 messages it
  // received; the walk follows the deterministic placement order.
  std::vector<std::vector<std::size_t>> succ_tables(
      static_cast<std::size_t>(cycles),
      std::vector<std::size_t>(new_n, kNoIndex));
  for (std::size_t index = 0; index < new_members.size(); ++index) {
    for (const NeighborMsg& msg : neighbor_msgs[index]) {
      const auto c = static_cast<std::size_t>(msg.cycle);
      // reconfnet-hotcheck: allow(RNH403) sparse-id remap, once per reconfig
      const auto succ_it = new_index.find(msg.succ);
      if (succ_it == new_index.end()) {
        return fail("successor references unknown id", rounds, max_bits);
      }
      succ_tables[c][index] = succ_it->second;
    }
  }
  for (const auto& table : succ_tables) {
    if (std::find(table.begin(), table.end(), kNoIndex) != table.end()) {
      return fail("a placed id received no neighbors", rounds, max_bits);
    }
  }

  ReconfigResult result;
  try {
    result.new_topology.emplace(new_n, std::move(succ_tables));
  } catch (const std::invalid_argument&) {
    return fail("assembled cycle is not Hamiltonian", rounds, max_bits);
  }
  result.success = true;
  result.rounds = rounds;
  result.max_node_bits_per_round =
      std::max(max_bits, meter.max_node_bits_any_round());
  result.sampling_instances = instances;
  result.new_members = std::move(new_members);
  result.cycle_stats = std::move(cycle_stats);
  return result;
}

}  // namespace reconfnet::churn
