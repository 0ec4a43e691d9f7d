#include "transport/pacer.hpp"

#include <algorithm>
#include <utility>

namespace reconfnet::transport {

RoundPacer::RoundPacer(PacerConfig config, std::int64_t now_us)
    : config_(config) {
  begin_round(0, now_us);
}

void RoundPacer::set_peers(std::span<const sim::NodeId> peers) {
  std::vector<Peer> fresh;
  fresh.reserve(peers.size());
  for (const sim::NodeId id : peers) {
    Peer entry;
    entry.id = id;
    if (const Peer* old = find(id)) entry = *old;
    fresh.push_back(entry);
  }
  std::sort(fresh.begin(), fresh.end(),
            [](const Peer& a, const Peer& b) { return a.id < b.id; });
  fresh.erase(std::unique(fresh.begin(), fresh.end(),
                          [](const Peer& a, const Peer& b) {
                            return a.id == b.id;
                          }),
              fresh.end());
  peers_ = std::move(fresh);
}

void RoundPacer::note_frame(sim::NodeId peer, sim::Round peer_round) {
  Peer* entry = find(peer);
  if (entry == nullptr) return;
  entry->last_heard = std::max(entry->last_heard, peer_round);
  // Rejoin: an evicted peer that announces a current round was starved, not
  // dead (scheduling stalls, a healed partition). Crashed nodes can never
  // produce a fresh announcement, so eviction stays permanent for them while
  // a wrongly evicted live peer heals itself. Stale ghosts (older rounds)
  // stay evicted.
  if (entry->evicted && entry->last_heard >= round_ - 1) {
    entry->evicted = false;
    entry->misses = 0;
    ++counters_.rejoins;
  }
}

RoundPacer::Tick RoundPacer::tick(std::int64_t now_us, bool early_ok) {
  Tick result;
  // Resync: somebody live is past the horizon — we are the straggler. Jump
  // to the highest round heard instead of paying one deadline per round.
  sim::Round max_heard = -1;
  for (const Peer& peer : peers_) {
    if (!peer.evicted) max_heard = std::max(max_heard, peer.last_heard);
  }
  if (max_heard > round_ + kResyncHorizon) {
    ++counters_.resyncs;
    result.advance = true;
    result.resync = true;
    result.next_round = max_heard;
    return result;
  }

  // Early advance: every live peer announced the current round as complete
  // (their frames for it are provably staged here). Suppressed while our own
  // sends are unacked — we must not desert a round our peers are still
  // waiting to receive.
  if (early_ok) {
    bool all_caught_up = true;
    for (const Peer& peer : peers_) {
      if (!peer.evicted && peer.last_heard < round_) {
        all_caught_up = false;
        break;
      }
    }
    if (all_caught_up && !peers_.empty()) {
      ++counters_.early_advances;
      result.advance = true;
      result.next_round = round_ + 1;
      return result;
    }
  }

  if (now_us < deadline_us_) return result;  // keep waiting

  // Deadline: advance anyway. A live-but-stalled peer keeps re-announcing
  // the previous round, so only peers MORE than the current round behind —
  // silent across a whole deadline — are charged a miss.
  ++counters_.deadline_advances;
  for (Peer& peer : peers_) {
    if (peer.evicted) continue;
    if (peer.last_heard >= round_ - 1) {
      peer.misses = 0;
      continue;
    }
    ++peer.misses;
    if (peer.misses >= kEvictAfter) {
      peer.evicted = true;
      ++counters_.evictions;
    }
  }
  result.advance = true;
  result.next_round = round_ + 1;
  return result;
}

void RoundPacer::begin_round(sim::Round round, std::int64_t now_us) {
  round_ = round;
  deadline_us_ =
      now_us + config_.round_budget_us + (round == 0 ? kStartupGraceUs : 0);
  // A peer that caught up clears its miss streak at the boundary (the
  // deadline path above only charges the ones more than a round behind).
  for (Peer& peer : peers_) {
    if (!peer.evicted && peer.last_heard >= round_ - 2) peer.misses = 0;
  }
}

bool RoundPacer::suspected(sim::NodeId peer) const {
  const Peer* entry = find(peer);
  return entry != nullptr && !entry->evicted &&
         entry->misses >= kSuspectAfter;
}

bool RoundPacer::evicted(sim::NodeId peer) const {
  const Peer* entry = find(peer);
  return entry != nullptr && entry->evicted;
}

std::vector<sim::NodeId> RoundPacer::evicted_peers() const {
  std::vector<sim::NodeId> out;
  for (const Peer& peer : peers_) {
    if (peer.evicted) out.push_back(peer.id);
  }
  return out;
}

bool RoundPacer::group_silent(std::span<const sim::NodeId> members) const {
  bool tracked_any = false;
  for (const sim::NodeId id : members) {
    const Peer* entry = find(id);
    if (entry == nullptr) continue;
    tracked_any = true;
    if (!entry->evicted) return false;
  }
  return tracked_any;
}

const RoundPacer::Peer* RoundPacer::find(sim::NodeId id) const {
  const auto it = std::lower_bound(
      peers_.begin(), peers_.end(), id,
      [](const Peer& peer, sim::NodeId key) { return peer.id < key; });
  return it != peers_.end() && it->id == id ? &*it : nullptr;
}

RoundPacer::Peer* RoundPacer::find(sim::NodeId id) {
  return const_cast<Peer*>(std::as_const(*this).find(id));
}

}  // namespace reconfnet::transport
