#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <unordered_set>
#include <vector>

#include "adversary/churn.hpp"
#include "adversary/dos.hpp"
#include "churn_rules.hpp"
#include "combined/labels.hpp"
#include "combined/overlay.hpp"
#include "combined/split_merge.hpp"
#include "graph/connectivity.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace reconfnet::combined {
namespace {

TEST(Label, ChildParentSiblingRoundTrip) {
  const Label root{0, 0};
  const Label zero = root.child(0);
  const Label one = root.child(1);
  EXPECT_EQ(zero.length, 1);
  EXPECT_EQ(zero.bits, 0u);
  EXPECT_EQ(one.bits, 1u);
  EXPECT_EQ(zero.sibling(), one);
  EXPECT_EQ(one.sibling(), zero);
  EXPECT_EQ(zero.parent(), root);
  EXPECT_EQ(one.parent(), root);
  const Label deep = one.child(0).child(1);
  EXPECT_EQ(deep.length, 3);
  EXPECT_EQ(deep.parent().parent(), one);
  EXPECT_THROW((void)root.parent(), std::invalid_argument);
  EXPECT_THROW((void)root.sibling(), std::invalid_argument);
}

TEST(Label, KeysAreUniqueAcrossLengths) {
  // "0" vs "00" vs "000" must all have distinct keys.
  const Label a{0, 1};
  const Label b{0, 2};
  const Label c{0, 3};
  EXPECT_NE(a.key(), b.key());
  EXPECT_NE(b.key(), c.key());
  EXPECT_NE(a.key(), c.key());
}

TEST(Label, PrefixRelation) {
  const Label x{0b01, 2};  // coordinates 1,0
  EXPECT_TRUE(x.is_prefix_of(Label{0b101, 3}));
  EXPECT_TRUE(x.is_prefix_of(x));
  EXPECT_FALSE(x.is_prefix_of(Label{0b10, 2}));
  EXPECT_FALSE((Label{0b101, 3}).is_prefix_of(x));
  EXPECT_EQ((Label{0b101, 3}).prefix(2), x);
}

TEST(Label, ConnectivityRuleSection6) {
  // Equal lengths: plain hypercube adjacency.
  EXPECT_TRUE(labels_connected(Label{0b00, 2}, Label{0b01, 2}));
  EXPECT_FALSE(labels_connected(Label{0b00, 2}, Label{0b11, 2}));
  // Different lengths: compare the first d(x) coordinates.
  EXPECT_TRUE(labels_connected(Label{0b00, 2}, Label{0b101, 3}));   // 00 vs 10
  EXPECT_FALSE(labels_connected(Label{0b00, 2}, Label{0b111, 3}));  // 00 vs 11
  // Identical prefixes are NOT connected (zero differing coordinates).
  EXPECT_FALSE(labels_connected(Label{0b00, 2}, Label{0b100, 3}));
  EXPECT_FALSE(labels_connected(Label{0, 0}, Label{0, 1}));
}

TEST(Label, ToStringOrdersCoordinates) {
  EXPECT_EQ((Label{0b01, 2}).to_string(), "10");  // b1=1, b2=0
  EXPECT_EQ((Label{0, 0}).to_string(), "<root>");
}

std::vector<std::vector<sim::NodeId>> even_groups(std::size_t n,
                                                  std::size_t buckets) {
  std::vector<std::vector<sim::NodeId>> groups(buckets);
  for (std::size_t i = 0; i < n; ++i) groups[i % buckets].push_back(i);
  return groups;
}

TEST(SuperGroups, UniformConstructionIsValid) {
  const auto super = SuperGroups::uniform(3, even_groups(64, 8));
  EXPECT_EQ(super.supernode_count(), 8u);
  EXPECT_EQ(super.node_count(), 64u);
  EXPECT_EQ(super.min_dimension(), 3);
  EXPECT_EQ(super.max_dimension(), 3);
}

TEST(SuperGroups, RejectsIncompleteCode) {
  // Labels {0, 10} leave 11 uncovered.
  EXPECT_THROW(
      SuperGroups({{Label{0, 1}, {1}}, {Label{0b01, 2}, {2}}}),
      std::invalid_argument);
  // Label prefixing another.
  EXPECT_THROW(
      SuperGroups({{Label{0, 1}, {1}},
                   {Label{0b1, 1}, {2}},
                   {Label{0b01, 2}, {3}}}),
      std::invalid_argument);
  // Empty group.
  EXPECT_THROW(SuperGroups({{Label{0, 1}, {}}, {Label{1, 1}, {2}}}),
               std::invalid_argument);
}

TEST(SuperGroups, EnforceSplitsOversizedGroups) {
  // One giant group at the root: c = 2 forces splits until Eq (1) holds.
  std::vector<sim::NodeId> everyone(64);
  for (std::size_t i = 0; i < 64; ++i) everyone[i] = i;
  SuperGroups super({{Label{0, 0}, everyone}});
  support::Rng rng(1);
  const auto ops = super.enforce(2.0, rng);
  EXPECT_GT(ops.splits, 0);
  EXPECT_EQ(super.node_count(), 64u);
  for (const auto& [key, entry] : super.groups()) {
    const auto& [label, members] = entry;
    EXPECT_LT(static_cast<double>(members.size()),
              2.0 * 2.0 * label.length)
        << label.to_string();
  }
  EXPECT_LE(super.max_dimension() - super.min_dimension(), 2);
}

TEST(SuperGroups, EnforceMergesUndersizedGroups) {
  // Dimension-4 supernodes with 2 nodes each violate |R| > c d - c for
  // c = 2 (need > 6): everything merges upward.
  auto super = SuperGroups::uniform(4, even_groups(32, 16));
  support::Rng rng(2);
  const auto ops = super.enforce(2.0, rng);
  EXPECT_GT(ops.merges, 0);
  EXPECT_EQ(super.node_count(), 32u);
  for (const auto& [key, entry] : super.groups()) {
    const auto& [label, members] = entry;
    // The merge trigger is |R(x)| < c d(x) - c (strict), so sizes may rest
    // exactly at the boundary.
    EXPECT_GE(static_cast<double>(members.size()),
              2.0 * label.length - 2.0);
  }
}

TEST(SuperGroups, ForcedSubtreeMerge) {
  // Labels: 0 (big), 10, 11 (each tiny). Merging "10"/"11" requires the
  // sibling subtree of "0" to collapse first when "0" wants to merge — here
  // we exercise the other direction: "10" merges with "11" into "1", then
  // possibly "0" with "1".
  SuperGroups super({{Label{0, 1}, {1, 2, 3, 4}},
                     {Label{0b01, 2}, {5}},
                     {Label{0b11, 2}, {6}}});
  support::Rng rng(3);
  const auto ops = super.enforce(2.0, rng);
  EXPECT_GT(ops.merges, 0);
  EXPECT_EQ(super.node_count(), 6u);
}

TEST(SuperGroups, DescendSelectsByPrefix) {
  const auto super = SuperGroups::uniform(2, even_groups(16, 4));
  // bit_at(i) returning fixed bits 1,0 must land on label "10" = bits 0b01.
  const auto label = super.descend([](int i) { return i == 0 ? 1 : 0; });
  EXPECT_EQ(label, (Label{0b01, 2}));
}

TEST(SuperGroups, SampleMatchesTwoPowMinusDim) {
  // Labels {0 (d=1), 10 (d=2), 11 (d=2)}: probabilities 1/2, 1/4, 1/4.
  SuperGroups super({{Label{0, 1}, {1, 2}},
                     {Label{0b01, 2}, {3}},
                     {Label{0b11, 2}, {4}}});
  support::Rng rng(4);
  std::map<std::uint64_t, std::uint64_t> counts;
  const int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) ++counts[super.sample(rng).key()];
  EXPECT_NEAR(static_cast<double>(counts[(Label{0, 1}).key()]) / kDraws, 0.5,
              0.02);
  EXPECT_NEAR(static_cast<double>(counts[(Label{0b01, 2}).key()]) / kDraws,
              0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[(Label{0b11, 2}).key()]) / kDraws,
              0.25, 0.02);
}

TEST(SuperGroups, OverlayEdgesFollowConnectivityRule) {
  SuperGroups super({{Label{0, 1}, {1, 2}},
                     {Label{0b01, 2}, {3}},
                     {Label{0b11, 2}, {4}}});
  const auto edges = super.overlay_edges();
  auto has = [&](sim::NodeId a, sim::NodeId b) {
    return std::any_of(edges.begin(), edges.end(), [&](const auto& e) {
      return (e.first == a && e.second == b) ||
             (e.first == b && e.second == a);
    });
  };
  EXPECT_TRUE(has(1, 2));   // clique inside "0"
  EXPECT_TRUE(has(1, 3));   // "0" vs "10": first coordinate differs
  EXPECT_TRUE(has(1, 4));   // "0" vs "11": first coordinate differs
  EXPECT_TRUE(has(3, 4));   // "10" vs "11": second coordinate differs
  EXPECT_TRUE(graph::is_connected(super.all_nodes(), edges));
}

TEST(SuperGroups, ReassignValidation) {
  auto super = SuperGroups::uniform(1, even_groups(8, 2));
  // Same labels, different membership: fine.
  super.reassign({{Label{0, 1}, {0, 1, 2}}, {Label{1, 1}, {3, 4, 5, 6, 7}}});
  EXPECT_EQ(super.node_count(), 8u);
  // Empty group: rejected.
  EXPECT_THROW(
      super.reassign({{Label{0, 1}, {}}, {Label{1, 1}, {0, 1}}}),
      std::runtime_error);
  // Unknown label: rejected.
  EXPECT_THROW(super.reassign({{Label{0, 1}, {0}}, {Label{0b01, 2}, {1}}}),
               std::runtime_error);
}

TEST(InitialDimension, SatisfiesLemma18Window) {
  for (std::size_t n : {128u, 512u, 1024u, 4096u, 16384u}) {
    const double c = 2.0;
    const int d = CombinedOverlay::initial_dimension(n, c);
    EXPECT_LT(std::ldexp(2.0 * c * d, d), static_cast<double>(n)) << n;
    EXPECT_LE(static_cast<double>(n), std::ldexp(2.0 * c * (d + 1), d + 1))
        << n;
  }
}

CombinedOverlay::Config combined_config(std::size_t n, std::uint64_t seed) {
  CombinedOverlay::Config config;
  config.initial_size = n;
  config.group_c = 2.0;
  config.seed = seed;
  return config;
}

TEST(CombinedOverlay, BootstrapSatisfiesEquationOne) {
  CombinedOverlay overlay(combined_config(1024, 1));
  EXPECT_EQ(overlay.size(), 1024u);
  for (const auto& [key, entry] : overlay.supernodes().groups()) {
    const auto& [label, members] = entry;
    // Enforcement triggers are strict (split only when |R| > 2cd, merge only
    // when |R| < cd - c), so sizes may rest exactly at either boundary.
    EXPECT_GE(static_cast<double>(members.size()),
              2.0 * label.length - 2.0);
    EXPECT_LE(static_cast<double>(members.size()), 2.0 * 2.0 * label.length);
  }
  EXPECT_LE(overlay.supernodes().max_dimension() -
                overlay.supernodes().min_dimension(),
            2);
}

TEST(CombinedOverlay, QuietEpochSucceeds) {
  CombinedOverlay overlay(combined_config(512, 2));
  adversary::NoChurn quiet;
  const auto report = overlay.run_epoch(quiet, {});
  EXPECT_TRUE(report.success) << report.failure_reason;
  EXPECT_TRUE(report.reorganized);
  EXPECT_EQ(report.disconnected_rounds, 0u);
  EXPECT_EQ(overlay.size(), 512u);
  EXPECT_LE(report.max_dimension - report.min_dimension, 2);
}

TEST(CombinedOverlay, ChurnChangesMembershipWithinTwoEpochs) {
  CombinedOverlay overlay(combined_config(512, 3));
  support::Rng rng(4);
  adversary::UniformChurn churn(0.01, 1.0, 4.0, rng);
  adversary::NoChurn quiet;
  const std::size_t before = overlay.size();
  const auto first = overlay.run_epoch(churn, {});
  ASSERT_TRUE(first.success) << first.failure_reason;
  EXPECT_EQ(first.joins_applied, 0u);  // staged only
  const auto second = overlay.run_epoch(quiet, {});
  ASSERT_TRUE(second.success) << second.failure_reason;
  EXPECT_GT(second.joins_applied + second.leaves_applied, 0u);
  EXPECT_EQ(overlay.size(), before);  // turnover with growth 1.0
}

TEST(CombinedOverlay, Lemma18DimensionSpreadUnderGrowth) {
  // Sustained growth: supernodes must split, and the dimension window must
  // never exceed 2.
  CombinedOverlay overlay(combined_config(256, 5));
  support::Rng rng(6);
  adversary::UniformChurn churn(0.02, 2.0, 8.0, rng);
  int total_splits = 0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    const auto report = overlay.run_epoch(churn, {});
    ASSERT_TRUE(report.success) << "epoch " << epoch << ": "
                                << report.failure_reason;
    EXPECT_LE(report.max_dimension - report.min_dimension, 2)
        << "epoch " << epoch;
    total_splits += report.split_merge.splits;
  }
  EXPECT_GT(overlay.size(), 256u);
  EXPECT_GT(total_splits, 0);
}

TEST(CombinedOverlay, Lemma18DimensionSpreadUnderShrinkage) {
  CombinedOverlay overlay(combined_config(768, 7));
  support::Rng rng(8);
  adversary::UniformChurn churn(0.005, 0.0, 2.0, rng);  // leaves only
  int total_merges = 0;
  for (int epoch = 0; epoch < 6; ++epoch) {
    const auto report = overlay.run_epoch(churn, {});
    ASSERT_TRUE(report.success) << "epoch " << epoch << ": "
                                << report.failure_reason;
    EXPECT_LE(report.max_dimension - report.min_dimension, 2);
    total_merges += report.split_merge.merges;
  }
  EXPECT_LT(overlay.size(), 768u);
  EXPECT_GT(total_merges, 0);
}

TEST(CombinedOverlay, Theorem7ChurnAndDosTogether) {
  // Equation (1) lets groups rest at the floor c*d(x)-c, so the blocking
  // fraction must respect Lemma 17's c(eps) coupling: with c = 2 and 25%
  // blocked, silencing a floor-sized group is a <<1-per-run event. Epoch
  // failures (kept-old-groups retries) are tolerated; lost connectivity is
  // not — that is Theorem 7's actual claim.
  CombinedOverlay overlay(combined_config(1024, 9));
  support::Rng churn_rng(10), dos_rng(11);
  adversary::UniformChurn churn(0.005, 1.0, 4.0, churn_rng);
  adversary::IsolationDos dos_adversary(dos_rng);
  dos::Attack attack;
  attack.adversary = &dos_adversary;
  attack.blocked_fraction = 0.25;
  attack.lateness = 60;
  int ok = 0;
  for (int epoch = 0; epoch < 4; ++epoch) {
    const auto report = overlay.run_epoch(churn, attack);
    ok += report.success ? 1 : 0;
    EXPECT_EQ(report.disconnected_rounds, 0u) << "epoch " << epoch;
  }
  EXPECT_GE(ok, 3);
}

TEST(CombinedOverlay, ZeroLateGroupWipeIsDetected) {
  CombinedOverlay overlay(combined_config(512, 12));
  support::Rng dos_rng(13);
  adversary::GroupWipeDos dos_adversary(dos_rng);
  adversary::NoChurn quiet;
  dos::Attack attack;
  attack.adversary = &dos_adversary;
  attack.blocked_fraction = 0.45;
  attack.lateness = 0;
  const auto report = overlay.run_epoch(quiet, attack);
  EXPECT_FALSE(report.success);
  EXPECT_GT(report.silenced_group_rounds, 0u);
  EXPECT_FALSE(report.reorganized);
}

TEST(CombinedOverlay, MembershipIsMonotonic) {
  CombinedOverlay overlay(combined_config(256, 14));
  support::Rng rng(15);
  adversary::UniformChurn churn(0.02, 1.0, 4.0, rng);
  std::unordered_set<sim::NodeId> gone;
  for (int epoch = 0; epoch < 5; ++epoch) {
    const auto before = overlay.members();
    const auto report = overlay.run_epoch(churn, {});
    ASSERT_TRUE(report.success) << report.failure_reason;
    const auto after_list = overlay.members();
    std::unordered_set<sim::NodeId> after(after_list.begin(),
                                          after_list.end());
    for (sim::NodeId id : after) {
      EXPECT_FALSE(gone.contains(id)) << "id " << id << " re-entered";
    }
    for (sim::NodeId id : before) {
      if (!after.contains(id)) gone.insert(id);
    }
  }
  EXPECT_GT(gone.size(), 0u);
}

// Section 1.1's churn rule (tests/churn_rules.hpp), on the combined overlay.
CombinedOverlay make_overlay(std::uint64_t seed) {
  return CombinedOverlay(combined_config(256, seed));
}

TEST(CombinedOverlay, RejectsAReusedNodeId) {
  churn_rules::expect_rejects_reused_ids(make_overlay, 256);
}

TEST(CombinedOverlay, RejectsAJoinIdTheOverlayNeverIssued) {
  churn_rules::expect_rejects_unissued_ids(make_overlay, 256);
}

TEST(CombinedOverlay, RejectsASponsorWhoseLeaveIsStaged) {
  churn_rules::expect_rejects_a_leaving_sponsor(make_overlay, 256);
}

TEST(CombinedOverlay, DelegatesTheJoinsOfADepartedSponsor) {
  churn_rules::expect_delegates_a_departed_sponsors_joins(make_overlay);
}

/// Blocks `nodes` in round `at` only.
class BlockOnce final : public adversary::DosAdversary {
 public:
  BlockOnce(const std::vector<sim::NodeId>& nodes, sim::Round at)
      : nodes_(nodes.begin(), nodes.end()), at_(at) {}
  sim::BlockedSet choose(const sim::StaleSnapshotView&,
                         std::span<const sim::NodeId>, std::size_t,
                         sim::Round now) override {
    return now == at_ ? sim::BlockedSet(nodes_) : sim::BlockedSet();
  }

 private:
  std::unordered_set<sim::NodeId> nodes_;
  sim::Round at_;
};

TEST(CombinedOverlay, FailedEpochKeepsItsJoins) {
  // Blocking one whole group in the first round of epoch 1 silences it; the
  // join staged in epoch 0 is staged again and placed at the end of epoch 2.
  const auto run_silenced = [](CombinedOverlay& overlay,
                               adversary::ChurnAdversary& adversary) {
    const auto& group = overlay.supernodes().groups().begin()->second.second;
    BlockOnce silence(group, overlay.round());
    return overlay.run_epoch(adversary, {&silence, 0, 1.0});
  };
  churn_rules::expect_a_failed_epoch_keeps_its_joins(
      make_overlay, run_silenced, "a group was silenced");
}

TEST(CombinedOverlay, CrashedNodesAreEmulatedOut) {
  // Section 6's closing discussion: distinguishable crash failures are
  // emulated by the group and excluded at the next epoch boundary.
  CombinedOverlay overlay(combined_config(256, 30));
  adversary::NoChurn quiet;
  const auto members = overlay.members();
  overlay.crash(members[0]);
  overlay.crash(members[1]);
  overlay.crash(members[2]);
  EXPECT_EQ(overlay.crashed().size(), 3u);

  const auto report = overlay.run_epoch(quiet, {});
  ASSERT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.leaves_applied, 3u);
  EXPECT_EQ(overlay.size(), 253u);
  const auto after = overlay.members();
  std::unordered_set<sim::NodeId> alive(after.begin(), after.end());
  EXPECT_FALSE(alive.contains(members[0]));
  EXPECT_FALSE(alive.contains(members[1]));
  EXPECT_FALSE(alive.contains(members[2]));
  // Emulation is complete: no lingering crash bookkeeping.
  EXPECT_TRUE(overlay.crashed().empty());
}

TEST(CombinedOverlay, CrashedNodeIsSilentImmediately) {
  // Between crash and exclusion, the node behaves as permanently blocked —
  // the epoch still succeeds because the group covers for it.
  CombinedOverlay overlay(combined_config(256, 31));
  adversary::NoChurn quiet;
  overlay.crash(overlay.members()[10]);
  const auto report = overlay.run_epoch(quiet, {});
  EXPECT_TRUE(report.success) << report.failure_reason;
  EXPECT_EQ(report.disconnected_rounds, 0u);
  // A whole-group availability dip is visible but not total.
  EXPECT_LT(report.min_available_fraction, 1.0);
  EXPECT_GT(report.min_available_fraction, 0.0);
}

TEST(CombinedOverlay, CrashValidation) {
  CombinedOverlay overlay(combined_config(256, 32));
  EXPECT_THROW(overlay.crash(999999), std::invalid_argument);
  const sim::NodeId victim = overlay.members()[5];
  overlay.crash(victim);
  EXPECT_THROW(overlay.crash(victim), std::invalid_argument);
}

TEST(CombinedOverlay, MassCrashUnderChurnAndDos) {
  // Crashes, churn, and blocking all at once; the overlay absorbs all
  // three. 10% of the membership crashes before the first epoch.
  CombinedOverlay overlay(combined_config(512, 33));
  support::Rng churn_rng(34), dos_rng(35);
  adversary::UniformChurn churn(0.005, 1.0, 4.0, churn_rng);
  adversary::RandomDos dos_adversary(dos_rng);
  dos::Attack attack;
  attack.adversary = &dos_adversary;
  attack.blocked_fraction = 0.2;
  attack.lateness = 60;
  const auto members = overlay.members();
  for (std::size_t i = 0; i < 51; ++i) overlay.crash(members[i * 10]);

  int ok = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto report = overlay.run_epoch(churn, attack);
    ok += report.success ? 1 : 0;
    EXPECT_EQ(report.disconnected_rounds, 0u) << "epoch " << epoch;
  }
  EXPECT_GE(ok, 2);
  EXPECT_TRUE(overlay.crashed().empty());
  const auto final_members = overlay.members();
  std::unordered_set<sim::NodeId> alive(final_members.begin(),
                                        final_members.end());
  for (std::size_t i = 0; i < 51; ++i) {
    EXPECT_FALSE(alive.contains(members[i * 10]));
  }
}

}  // namespace
}  // namespace reconfnet::combined
