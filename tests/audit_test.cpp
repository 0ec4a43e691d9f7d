// Tests for the runtime invariant-audit layer (src/audit/). Each invariant
// family is exercised both ways: the checker stays silent on healthy state
// and fires on deliberately corrupted state. The end-to-end tests prove the
// audit hooks are wired into the overlays' round/epoch boundaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "adversary/churn.hpp"
#include "adversary/dos.hpp"
#include "apps/dht/kary_overlay.hpp"
#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "churn/overlay.hpp"
#include "combined/overlay.hpp"
#include "combined/split_merge.hpp"
#include "dos/group_table.hpp"
#include "dos/node_sim.hpp"
#include "dos/overlay.hpp"
#include "graph/hgraph.hpp"
#include "sim/bus.hpp"
#include "sim/metrics.hpp"
#include "support/rng.hpp"

namespace reconfnet {
namespace {

using audit::AuditError;
using audit::ScopedEnable;
using audit::Violation;

std::vector<sim::NodeId> make_nodes(std::size_t n, sim::NodeId first = 0) {
  std::vector<sim::NodeId> nodes(n);
  for (std::size_t i = 0; i < n; ++i) nodes[i] = first + i;
  return nodes;
}

bool has_check(const std::vector<Violation>& violations,
               const std::string& check) {
  return std::any_of(
      violations.begin(), violations.end(),
      [&](const Violation& violation) { return violation.check == check; });
}

// --- core gating ------------------------------------------------------------

TEST(AuditCore, ScopedEnableTogglesAndRestores) {
  const bool before = audit::enabled();
  {
    ScopedEnable on(true);
    EXPECT_TRUE(audit::enabled());
    {
      ScopedEnable off(false);
      EXPECT_FALSE(audit::enabled());
    }
    EXPECT_TRUE(audit::enabled());
  }
  EXPECT_EQ(audit::enabled(), before);
}

TEST(AuditCore, EnforceCountsChecksAndThrowsWithDetails) {
  audit::reset_stats();
  EXPECT_NO_THROW(audit::enforce({}));
  EXPECT_EQ(audit::stats().checks_run, 1u);
  EXPECT_EQ(audit::stats().violations_found, 0u);

  try {
    audit::enforce({{"test.check", "something broke"}});
    FAIL() << "enforce() must throw on violations";
  } catch (const AuditError& error) {
    ASSERT_EQ(error.violations().size(), 1u);
    EXPECT_EQ(error.violations()[0].check, "test.check");
    EXPECT_NE(std::string(error.what()).find("something broke"),
              std::string::npos);
  }
  EXPECT_EQ(audit::stats().checks_run, 2u);
  EXPECT_EQ(audit::stats().violations_found, 1u);
}

// --- H-graph structure (Section 2.2, Algorithm 3) ---------------------------

TEST(AuditHGraph, HealthyRandomHGraphPasses) {
  support::Rng rng(7);
  const auto graph = graph::HGraph::random(64, 8, rng);
  EXPECT_TRUE(audit::check_hgraph(graph, 8).empty());
}

TEST(AuditHGraph, FiresOnWrongExpectedDegree) {
  support::Rng rng(7);
  const auto graph = graph::HGraph::random(64, 8, rng);
  const auto violations = audit::check_hgraph(graph, 6);
  EXPECT_TRUE(has_check(violations, "hgraph.degree"));
}

TEST(AuditHGraph, FiresOnNonPermutationSuccessors) {
  // Vertex 2 has two predecessors; vertex 3 has none.
  const std::vector<std::vector<std::size_t>> successors = {{1, 2, 2, 0}};
  const auto violations = audit::check_hamilton_cycles(4, successors);
  EXPECT_TRUE(has_check(violations, "hgraph.cycle"));
}

TEST(AuditHGraph, FiresOnSplitCycle) {
  // A valid permutation that is two 2-cycles, not one Hamilton cycle.
  const std::vector<std::vector<std::size_t>> successors = {{1, 0, 3, 2}};
  const auto violations = audit::check_hamilton_cycles(4, successors);
  EXPECT_TRUE(has_check(violations, "hgraph.cycle"));
}

TEST(AuditHGraph, SilentOnHealthyHamiltonCycle) {
  const std::vector<std::vector<std::size_t>> successors = {{1, 2, 3, 0}};
  EXPECT_TRUE(audit::check_hamilton_cycles(4, successors).empty());
}

// --- overlay edge lists -----------------------------------------------------

TEST(AuditEdges, SilentOnHealthyEdgeList) {
  const auto nodes = make_nodes(4);
  const std::vector<std::pair<sim::NodeId, sim::NodeId>> edges = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}};
  EXPECT_TRUE(audit::check_edge_symmetry(nodes, edges).empty());
}

TEST(AuditEdges, FiresOnSelfLoopDanglingAndDuplicate) {
  const auto nodes = make_nodes(4);
  const std::vector<std::pair<sim::NodeId, sim::NodeId>> edges = {
      {0, 0},        // self-loop
      {1, 99},       // dangling endpoint
      {2, 3}, {3, 2} // duplicate in the opposite orientation
  };
  const auto violations = audit::check_edge_symmetry(nodes, edges);
  EXPECT_TRUE(has_check(violations, "edges.self_loop"));
  EXPECT_TRUE(has_check(violations, "edges.dangling"));
  EXPECT_TRUE(has_check(violations, "edges.duplicate"));
}

// --- group partition and size bounds (Section 5) ----------------------------

TEST(AuditGroups, HealthyRandomGroupTablePasses) {
  support::Rng rng(3);
  const auto table =
      dos::GroupTable::random(4, make_nodes(256, 1000), rng);
  EXPECT_TRUE(audit::check_group_table(table, 1.0).empty());
}

TEST(AuditGroups, FiresOnDuplicateAndMissingNodes) {
  // Node 2 appears twice; the expected total of 4 nodes is missed too.
  const std::vector<std::vector<sim::NodeId>> groups = {{1, 2}, {2}};
  const auto violations = audit::check_group_partition(groups, 4);
  EXPECT_TRUE(has_check(violations, "groups.duplicate"));
  EXPECT_TRUE(has_check(violations, "groups.partition"));
}

TEST(AuditGroups, FiresOnEmptyGroup) {
  const std::vector<std::vector<sim::NodeId>> groups = {{1, 2}, {}};
  EXPECT_TRUE(has_check(audit::check_group_partition(groups, 2),
                        "groups.empty"));
}

TEST(AuditGroups, FiresOnDegenerateGroupSizes) {
  // A GroupTable the constructor accepts (valid partition) whose sizes are
  // far outside the Theta(log n) envelope: one giant group, three singletons.
  std::vector<std::vector<sim::NodeId>> raw(4);
  for (sim::NodeId node = 0; node < 100; ++node) raw[0].push_back(node);
  raw[1] = {100};
  raw[2] = {101};
  raw[3] = {102};
  const dos::GroupTable table(2, std::move(raw));
  const auto violations = audit::check_group_table(table, 1.0);
  EXPECT_TRUE(has_check(violations, "groups.size"));
}

// --- supernode labels and Equation (1) (Section 6) --------------------------

TEST(AuditLabels, SilentOnCompleteCode) {
  // Leaves {0, 10, 11}: a complete prefix-free code.
  const combined::Label zero{0, 1};
  const std::vector<combined::Label> labels = {
      zero, zero.sibling().child(0), zero.sibling().child(1)};
  EXPECT_TRUE(audit::check_complete_code(labels).empty());
}

TEST(AuditLabels, FiresOnMissingLeaf) {
  // {0, 10} without 11: Kraft sum 3/4 < 1.
  const combined::Label zero{0, 1};
  const std::vector<combined::Label> labels = {zero,
                                               zero.sibling().child(0)};
  EXPECT_TRUE(
      has_check(audit::check_complete_code(labels), "labels.complete"));
}

TEST(AuditLabels, FiresOnPrefixViolation) {
  // "0" is a prefix of "00" (a parent and its child are both live).
  const combined::Label zero{0, 1};
  const std::vector<combined::Label> labels = {zero, zero.child(0),
                                               zero.sibling()};
  EXPECT_TRUE(has_check(audit::check_complete_code(labels), "labels.prefix"));
}

TEST(AuditEquation1, FiresOnOversizedSupernode) {
  // d = 1 with c = 2: the envelope is [0, 4], so a 20-node group violates it.
  auto super = combined::SuperGroups::uniform(
      1, {make_nodes(20), make_nodes(3, 100)});
  const auto violations = audit::check_equation1(super, 2.0);
  EXPECT_TRUE(has_check(violations, "supergroups.equation1"));
}

TEST(AuditEquation1, SilentAfterEnforce) {
  auto super = combined::SuperGroups::uniform(
      1, {make_nodes(20), make_nodes(3, 100)});
  support::Rng rng(5);
  super.enforce(2.0, rng);
  EXPECT_TRUE(audit::check_equation1(super, 2.0).empty());
  EXPECT_TRUE(audit::check_supergroups(super, 2.0).empty());
}

// --- bus conservation and blocking rule (Section 1.1) -----------------------

TEST(AuditBus, SilentOnConservedMeter) {
  sim::WorkMeter meter;
  meter.note_sent(1, 64);
  meter.note_sent(1, 64);
  meter.note_received(2, 64);
  meter.note_dropped();
  meter.finish_round(0);
  EXPECT_TRUE(audit::check_bus_conservation(meter).empty());
}

TEST(AuditBus, FiresWhenDeliveriesExceedSends) {
  sim::WorkMeter meter;
  meter.note_received(2, 64);  // delivery without any send
  meter.finish_round(0);
  EXPECT_TRUE(
      has_check(audit::check_bus_conservation(meter), "bus.conservation"));
}

TEST(AuditBus, FiresWhenDropsAreUnaccounted) {
  sim::WorkMeter meter;
  meter.note_sent(1, 64);
  meter.note_received(2, 64);
  meter.note_dropped();  // delivered + dropped > sent
  meter.finish_round(0);
  EXPECT_TRUE(
      has_check(audit::check_bus_conservation(meter), "bus.conservation"));
}

TEST(AuditBus, BlockingRuleFiresForEachBlockedEndpoint) {
  const sim::BlockedSet sender_blocked({1});
  const sim::BlockedSet receiver_blocked({2});
  EXPECT_TRUE(has_check(
      audit::check_blocking_rule(1, 2, sender_blocked, {}), "bus.blocking"));
  EXPECT_TRUE(has_check(
      audit::check_blocking_rule(1, 2, receiver_blocked, {}),
      "bus.blocking"));
  EXPECT_TRUE(has_check(
      audit::check_blocking_rule(1, 2, {}, receiver_blocked),
      "bus.blocking"));
  EXPECT_TRUE(audit::check_blocking_rule(1, 2, {}, {}).empty());
}

TEST(AuditBus, BusStepUnderAuditStaysSilentOnHealthyTraffic) {
  ScopedEnable on;
  sim::WorkMeter meter;
  sim::Bus<int> bus(&meter);
  sim::BlockedSet blocked({2});
  bus.send(0, 1, 41, 64);
  bus.send(0, 2, 42, 64);  // dropped: receiver blocked in the sending round
  EXPECT_NO_THROW(bus.step(blocked, {}));
  EXPECT_EQ(bus.inbox(1).size(), 1u);
  EXPECT_TRUE(bus.inbox(2).empty());
  EXPECT_TRUE(audit::check_bus_conservation(meter).empty());
}

// --- adversary budget contract ----------------------------------------------

TEST(AuditAdversary, FiresOnBudgetOverrunAndUnknownNodes) {
  const auto universe = make_nodes(8);
  const sim::BlockedSet over({0, 1, 2});
  EXPECT_TRUE(has_check(audit::check_blocked_budget(over, 2, universe),
                        "adversary.budget"));
  const sim::BlockedSet unknown({99});
  EXPECT_TRUE(has_check(audit::check_blocked_budget(unknown, 4, universe),
                        "adversary.budget"));
  const sim::BlockedSet fine({0, 1});
  EXPECT_TRUE(audit::check_blocked_budget(fine, 2, universe).empty());
}

// --- adversary lateness contract (Section 1.1 t-lateness) --------------------

TEST(AuditAdversary, LatenessCheckFiresOnTooFreshView) {
  // now=10, snapshot=8, t=5: the view is only 2 rounds stale.
  EXPECT_TRUE(has_check(audit::check_adversary_lateness(10, 8, 5),
                        "adversary.lateness"));
  // Exactly t rounds stale is the boundary the contract permits.
  EXPECT_TRUE(audit::check_adversary_lateness(13, 8, 5).empty());
  // Lateness 0 is trivially satisfied even by the freshest snapshot.
  EXPECT_TRUE(audit::check_adversary_lateness(10, 10, 0).empty());
}

TEST(AuditCore, ScopedOracleEnableTogglesAndRestores) {
  const bool before = audit::oracle_enabled();
  {
    const audit::ScopedOracleEnable on;
    EXPECT_TRUE(audit::oracle_enabled());
    {
      const audit::ScopedOracleEnable off(false);
      EXPECT_FALSE(audit::oracle_enabled());
    }
    EXPECT_TRUE(audit::oracle_enabled());
  }
  EXPECT_EQ(audit::oracle_enabled(), before);
}

// --- end-to-end: hooks wired into the overlays ------------------------------

TEST(AuditHooks, ChurnOverlayHealthyEpochIsSilent) {
  ScopedEnable on;
  audit::reset_stats();
  churn::ChurnOverlay::Config config;
  config.initial_size = 64;
  config.degree = 8;
  config.sampling.c = 2.0;
  config.seed = 21;
  churn::ChurnOverlay overlay(config);
  support::Rng rng(22);
  adversary::UniformChurn churn(0.05, 1.0, 1.0, rng.split(1));
  for (int epoch = 0; epoch < 2; ++epoch) {
    EXPECT_NO_THROW(overlay.run_epoch(churn));
  }
  EXPECT_GT(audit::stats().checks_run, 0u);
  EXPECT_EQ(audit::stats().violations_found, 0u);
}

TEST(AuditHooks, DosOverlayHealthyEpochIsSilent) {
  ScopedEnable on;
  audit::reset_stats();
  dos::DosOverlay::Config config;
  config.size = 1024;
  config.group_c = 2.0;  // groups of ~32 nodes, safe under 35% blocking
  config.seed = 23;
  dos::DosOverlay overlay(config);
  support::Rng rng(24);
  adversary::RandomDos adversary(rng.split(2));
  dos::Attack attack;
  attack.adversary = &adversary;
  attack.lateness = 64;
  attack.blocked_fraction = 0.35;
  const auto report = overlay.run_epoch(attack);
  EXPECT_TRUE(report.success) << report.failure_reason;
  EXPECT_GT(audit::stats().checks_run, 0u);
  EXPECT_EQ(audit::stats().violations_found, 0u);
}

TEST(AuditHooks, CombinedOverlayHealthyEpochIsSilent) {
  ScopedEnable on;
  audit::reset_stats();
  combined::CombinedOverlay::Config config;
  config.initial_size = 512;
  config.group_c = 2.0;
  config.seed = 25;
  combined::CombinedOverlay overlay(config);
  adversary::NoChurn quiet;
  const auto report = overlay.run_epoch(quiet, {});
  EXPECT_TRUE(report.success) << report.failure_reason;
  EXPECT_GT(audit::stats().checks_run, 0u);
  EXPECT_EQ(audit::stats().violations_found, 0u);
}

TEST(AuditHooks, OracleAuditSilentAcrossCombinedEpochsUnderAttack) {
  // The RECONFNET_ORACLEAUDIT dynamic twin of reconfnet_oraclecheck: with
  // the oracle audit armed, every adversary read of its stale view
  // re-asserts now - snapshot.round >= t. Churn reconfigures the overlay
  // across epochs while a t-late DoS adversary keeps reading; the serve
  // sites' staleness arithmetic must hold on every read of every epoch.
  const audit::ScopedOracleEnable oracle;
  ScopedEnable on;
  audit::reset_stats();
  combined::CombinedOverlay::Config config;
  config.initial_size = 256;
  config.group_c = 2.0;
  config.seed = 29;
  combined::CombinedOverlay overlay(config);
  support::Rng churn_rng(30);
  adversary::UniformChurn churn(0.02, 1.0, 2.0, churn_rng);
  support::Rng dos_rng(31);
  adversary::RandomDos dos(dos_rng);
  dos::Attack attack;
  attack.adversary = &dos;
  attack.blocked_fraction = 0.2;
  attack.lateness = 12;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto report = overlay.run_epoch(churn, attack);
    EXPECT_TRUE(report.success) << report.failure_reason;
  }
  EXPECT_GT(audit::stats().checks_run, 0u);
  EXPECT_EQ(audit::stats().violations_found, 0u);
}

/// Blocks one node more than its budget allows.
class OverBudgetDos final : public adversary::DosAdversary {
 public:
  sim::BlockedSet choose(const sim::StaleSnapshotView& /*stale*/,
                         std::span<const sim::NodeId> universe,
                         std::size_t budget, sim::Round /*now*/) override {
    sim::BlockedSet blocked;
    for (std::size_t i = 0; i <= budget && i < universe.size(); ++i) {
      blocked.insert(universe[i]);
    }
    return blocked;
  }
};

TEST(AuditHooks, KaryOverlayOverBudgetAdversaryThrows) {
  // The k-ary DHT overlay serves its adversary through the same attack
  // round as the DoS and combined overlays, budget audit included.
  apps::KaryGroupedOverlay::Config config;
  config.size = 256;
  config.arity = 4;
  config.seed = 33;
  apps::KaryGroupedOverlay overlay(config);
  OverBudgetDos adversary;
  dos::Attack attack;
  attack.adversary = &adversary;
  attack.blocked_fraction = 0.1;
  {
    ScopedEnable off(false);
    EXPECT_NO_THROW((void)overlay.run_epoch(attack));
  }
  ScopedEnable on;
  EXPECT_THROW((void)overlay.run_epoch(attack), AuditError);
}

TEST(AuditHooks, NodeLevelEpochUnderAuditIsSilent) {
  ScopedEnable on;
  audit::reset_stats();
  support::Rng table_rng(26);
  const auto groups =
      dos::GroupTable::random(3, make_nodes(128), table_rng);
  support::Rng rng(27);
  const auto report = dos::run_node_level_epoch(groups, {}, {}, rng);
  EXPECT_TRUE(report.success) << report.failure_reason;
  EXPECT_GT(audit::stats().checks_run, 0u);
  EXPECT_EQ(audit::stats().violations_found, 0u);
}

TEST(AuditHooks, KaryOverlayQuietEpochIsAuditedAndMetered) {
  // The k-ary DHT overlay runs Section 5's epoch: with no adversary there is
  // no budget to audit, so the checks are the epoch-boundary audit's. At
  // k = 16 and n = 2048 the 16 groups average 128 > 6 log2 n members.
  ScopedEnable on;
  for (const auto& [arity, n] : {std::pair{4, 512U}, std::pair{16, 2048U}}) {
    audit::reset_stats();
    apps::KaryGroupedOverlay::Config config;
    config.size = n;
    config.arity = arity;
    config.seed = 35;
    apps::KaryGroupedOverlay overlay(config);
    const auto report = overlay.run_epoch({});
    EXPECT_TRUE(report.success) << report.failure_reason;
    EXPECT_GT(report.max_node_bits_per_round, 0u);
    EXPECT_GT(audit::stats().checks_run, 0u);
    EXPECT_EQ(audit::stats().violations_found, 0u);
  }
}

TEST(AuditHooks, DisabledAuditSkipsChecks) {
  ScopedEnable off(false);
  audit::reset_stats();
  churn::ChurnOverlay::Config config;
  config.initial_size = 64;
  config.degree = 8;
  config.sampling.c = 2.0;
  config.seed = 28;
  churn::ChurnOverlay overlay(config);
  adversary::NoChurn quiet;
  EXPECT_NO_THROW(overlay.run_epoch(quiet));
  EXPECT_EQ(audit::stats().checks_run, 0u);
}

}  // namespace
}  // namespace reconfnet
