// The group-level epoch of Section 5, shared by every grouped overlay:
// dos::DosOverlay (Section 5, and at arity k the DHT overlay of Section 7.2)
// and the combined overlay of Section 6. Each group R(x) simulates
// Algorithm 2 for its supernode x (Lemma 14), and the final phase sends the
// i-th member of R(x) to the i-th sample of x. The overlays differ only in
// what a round costs and who is blocked in it, so each passes its own round
// step to the one sampler exchange below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dos/group_table.hpp"
#include "sampling/hypercube_sampler.hpp"
#include "sampling/schedule.hpp"
#include "support/rng.hpp"

namespace reconfnet::dos {

/// Result of one group-level run of Algorithm 2.
struct SupernodeSampling {
  /// cores[x] is supernode x's sampler, as its group replicates it.
  std::vector<sampling::HypercubeSamplerCore> cores;
  std::size_t dry_events = 0;     ///< summed over all cores
  std::size_t lost_messages = 0;  ///< request and response legs lost
};

/// Loss test of a lossless exchange.
inline constexpr auto kNoLoss = [](std::uint64_t /*from*/,
                                   std::uint64_t /*to*/) { return false; };

/// Runs Algorithm 2 for supernodes 0..supernodes-1 of a `dimension`-cube
/// (supernodes <= 2^dimension). Core x draws from epoch_rng.split(x), taken
/// in ascending x; those splits are the only use of epoch_rng, so a caller
/// can keep splitting it afterwards.
///
/// Iteration i first calls step(i, synchronization, cores) for its four
/// rounds: the request round and the response round, each a simulation
/// round (synchronization = false) followed by a synchronization round
/// (true). Then it exchanges the iteration's requests and responses. Each
/// round therefore sees the cores as they stood when the iteration began,
/// which is the state S(x) a group broadcasts during the iteration; the
/// exchange draws only from the cores' own streams.
///
/// lost(from, to) is asked once per request leg before it is served and once
/// per response leg; a lost leg starves its requester, which can leave a
/// sampler dry.
template <class Step, class Lost>
SupernodeSampling sample_supernodes(int dimension, std::uint64_t supernodes,
                                    const sampling::Schedule& schedule,
                                    support::Rng& epoch_rng, Step&& step,
                                    Lost&& lost) {
  using Core = sampling::HypercubeSamplerCore;
  SupernodeSampling result;
  auto& cores = result.cores;
  std::vector<support::Rng> rngs;
  cores.reserve(supernodes);
  rngs.reserve(supernodes);
  for (std::uint64_t x = 0; x < supernodes; ++x) {
    cores.emplace_back(dimension, x, schedule);
    rngs.push_back(epoch_rng.split(x));
    cores.back().init(rngs.back());
  }

  // Per-supernode scratch reused across iterations: `outgoing` entries are
  // overwritten wholesale, `responses` entries are cleared (capacity kept).
  std::vector<std::vector<std::pair<std::uint64_t, Core::Request>>> outgoing(
      supernodes);
  std::vector<std::vector<Core::Response>> responses(supernodes);
  for (int i = 1; i <= schedule.iterations; ++i) {
    for (int round = 0; round < 4; ++round) {
      step(i, /*synchronization=*/round % 2 == 1, std::as_const(cores));
    }
    for (std::uint64_t x = 0; x < supernodes; ++x) {
      outgoing[x] = cores[x].make_requests(i, rngs[x]);
    }
    for (auto& inbox : responses) inbox.clear();
    for (std::uint64_t x = 0; x < supernodes; ++x) {
      for (const auto& [dest, request] : outgoing[x]) {
        if (lost(x, dest)) {
          ++result.lost_messages;
          continue;
        }
        const auto response = cores[dest].serve(request, i, rngs[dest]);
        if (lost(dest, request.requester)) {
          ++result.lost_messages;
          continue;
        }
        responses[request.requester].push_back(response);
      }
    }
    for (auto& core : cores) core.discard_consumed(i);
    for (std::uint64_t x = 0; x < supernodes; ++x) {
      for (const auto& response : responses[x]) {
        cores[x].accept(response, rngs[x]);
      }
    }
  }
  for (const auto& core : cores) result.dry_events += core.dry_events();
  return result;
}

/// Outcome of the final phase.
enum class Reassignment {
  kDone,            ///< every node moved to its sampled supernode
  kSampleShortage,  ///< some |R(x)| exceeds the samples of x
  kEmptySupernode,  ///< no node was sent to some supernode
};

/// The final phase of Section 5: the i-th member (by id) of R(x) moves to
/// the i-th sample of x, for every x. On kDone the groups are replaced; on
/// a failure they are left unchanged.
Reassignment reassign_to_samples(
    GroupTable& groups,
    const std::vector<sampling::HypercubeSamplerCore>& cores);

}  // namespace reconfnet::dos
