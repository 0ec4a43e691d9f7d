// Tests for reconfnet_racecheck (tools/racecheck/): one test per RNR rule
// id, driven by the fixtures in tests/racecheck_fixtures/, plus coverage for
// the concurrency.toml parser, spawn-site discovery (free / member / N-th
// argument / context-index forms), suppressions (including stale detection)
// and spec-drift legs. The fixtures directory is excluded from every
// repo-wide tool walk, so the deliberate violations never reach the real
// gate; the tests feed them to the Driver under synthetic paths.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "toolcheck_util.hpp"
#include "tools/racecheck/racecheck.hpp"

namespace rc = reconfnet::racecheck;

using reconfnet::toolcheck::lines_of;

namespace {

std::string read_fixture(const std::string& name) {
  return reconfnet::toolcheck::read_fixture_file(RECONFNET_RACECHECK_FIXTURES,
                                                 name);
}

/// A spec with one free-call spawn family (`parallel_for`, shard index =
/// last lambda parameter) sanctioned inside drive() of `file`, with `slots`
/// as the only declared per-shard slot.
rc::Spec drive_spec(const std::string& file) {
  rc::Spec spec;
  rc::SpawnSpec spawn;
  spawn.name = "pfor";
  spawn.callee = "parallel_for";
  spawn.arg = "last";
  spawn.index = "param";
  spec.spawns.push_back(spawn);
  rc::RegionSpec region;
  region.name = "fixture";
  region.file = file;
  region.function = "drive";
  region.spawn = "pfor";
  region.slots = {"slots"};
  region.line = 1;
  spec.regions.push_back(region);
  return spec;
}

rc::Driver::Result run_fixture(const std::string& fixture,
                               const std::string& as_path, rc::Spec spec) {
  rc::Driver driver(std::move(spec), "spec.toml");
  driver.add_file(as_path, read_fixture(fixture));
  return driver.run();
}

// --- spec parser ------------------------------------------------------------

TEST(RacecheckSpec, ParsesSpawnsRegionsSharedAndAllow) {
  const std::string text = R"(
[options]
roots = ["src/", "bench/"]

[shared]
readonly_types = ["Config"]
globals = ["epoch_counter"]

[[spawn]]
name = "pfor"
callee = "parallel_for"
index = "param"

[[spawn]]
name = "runner"
callee = "run"
receiver = "TrialRunner"
arg = "2"
index = "context"

[[region]]
name = "fanout"
file = "src/runtime/trial_runner.hpp"
function = "run"
spawn = "pfor"
slots = ["slots"]
readonly = ["config"]

[[region]]
file_prefix = "bench/"
spawn = "runner"

[allow]
RNR590 = ["tools/racecheck/"]
)";
  rc::Spec spec;
  std::string error;
  ASSERT_TRUE(rc::parse_spec(text, spec, error)) << error;
  EXPECT_EQ(spec.roots, (std::vector<std::string>{"src/", "bench/"}));
  EXPECT_EQ(spec.readonly_types, (std::vector<std::string>{"Config"}));
  EXPECT_EQ(spec.globals, (std::vector<std::string>{"epoch_counter"}));
  ASSERT_EQ(spec.spawns.size(), 2u);
  EXPECT_EQ(spec.spawns[0].name, "pfor");
  EXPECT_EQ(spec.spawns[0].index, "param");
  EXPECT_EQ(spec.spawns[1].receiver, "TrialRunner");
  EXPECT_EQ(spec.spawns[1].arg, "2");
  ASSERT_EQ(spec.regions.size(), 2u);
  EXPECT_EQ(spec.regions[0].slots, (std::vector<std::string>{"slots"}));
  EXPECT_EQ(spec.regions[0].readonly, (std::vector<std::string>{"config"}));
  EXPECT_EQ(spec.regions[1].name, "bench/");  // defaulted from the prefix
  ASSERT_EQ(spec.allow.count("RNR590"), 1u);
}

TEST(RacecheckSpec, RejectsBadShapes) {
  rc::Spec spec;
  std::string error;
  EXPECT_FALSE(rc::parse_spec(
      "[[spawn]]\nname = \"x\"\ncallee = \"f\"\nindex = \"bogus\"\n", spec,
      error));
  EXPECT_FALSE(rc::parse_spec("[[spawn]]\nname = \"x\"\n", spec, error));
  // Region with both file and file_prefix.
  EXPECT_FALSE(rc::parse_spec(
      "[[spawn]]\nname = \"x\"\ncallee = \"f\"\n"
      "[[region]]\nfile = \"a.cpp\"\nfunction = \"g\"\n"
      "file_prefix = \"src/\"\nspawn = \"x\"\n",
      spec, error));
  // Region referencing an unknown spawn family.
  EXPECT_FALSE(rc::parse_spec(
      "[[region]]\nfile_prefix = \"src/\"\nspawn = \"ghost\"\n", spec,
      error));
  // Duplicate spawn names.
  EXPECT_FALSE(rc::parse_spec(
      "[[spawn]]\nname = \"x\"\ncallee = \"f\"\n"
      "[[spawn]]\nname = \"x\"\ncallee = \"g\"\n",
      spec, error));
}

// --- per-rule fixtures ------------------------------------------------------

TEST(Racecheck, CleanRegionHasNoFindings) {
  const auto result = run_fixture("clean_region.cpp", "src/fixture.cpp",
                                  drive_spec("src/fixture.cpp"));
  EXPECT_TRUE(result.findings.empty())
      << result.findings.front().rule << " at line "
      << result.findings.front().line;
  EXPECT_EQ(result.sites_checked, 1u);
  EXPECT_EQ(result.lambdas_checked, 1u);
}

TEST(Racecheck, Rnr501FlagsRefCaptureAndSharedMutation) {
  const auto result = run_fixture("rnr501_ref_capture.cpp", "src/fixture.cpp",
                                  drive_spec("src/fixture.cpp"));
  EXPECT_EQ(lines_of(result, "RNR501"),
            (std::vector<std::size_t>{13, 14}));
}

TEST(Racecheck, Rnr502FlagsUnsplitRng) {
  const auto result = run_fixture("rnr502_unsplit_rng.cpp", "src/fixture.cpp",
                                  drive_spec("src/fixture.cpp"));
  EXPECT_EQ(lines_of(result, "RNR502"),
            (std::vector<std::size_t>{13, 14}));
}

TEST(Racecheck, Rnr503FlagsWrongIndexWrites) {
  const auto result = run_fixture("rnr503_wrong_index.cpp", "src/fixture.cpp",
                                  drive_spec("src/fixture.cpp"));
  EXPECT_EQ(lines_of(result, "RNR503"),
            (std::vector<std::size_t>{12, 13}));
}

TEST(Racecheck, Rnr504FlagsCompletionOrderMerge) {
  const auto result = run_fixture("rnr504_completion_order.cpp",
                                  "src/fixture.cpp",
                                  drive_spec("src/fixture.cpp"));
  EXPECT_EQ(lines_of(result, "RNR504"), (std::vector<std::size_t>{12}));
}

TEST(Racecheck, Rnr505FlagsAdHocSyncOutsideRuntime) {
  const auto result = run_fixture("rnr505_adhoc_mutex.cpp",
                                  "src/sim/fixture_sync.cpp",
                                  drive_spec("src/fixture.cpp"));
  EXPECT_EQ(lines_of(result, "RNR505"),
            (std::vector<std::size_t>{9, 14}));
}

TEST(Racecheck, Rnr505IgnoresRuntimeDirectory) {
  rc::Driver driver(drive_spec("src/fixture.cpp"), "spec.toml");
  driver.add_file("src/runtime/fixture_sync.cpp",
                  read_fixture("rnr505_adhoc_mutex.cpp"));
  driver.set_partial(true);
  const auto result = driver.run();
  EXPECT_TRUE(lines_of(result, "RNR505").empty());
}

TEST(Racecheck, Rnr506FlagsGlobalStateDirectAndOneLevelDeep) {
  const auto result = run_fixture("rnr506_global_state.cpp",
                                  "src/fixture.cpp",
                                  drive_spec("src/fixture.cpp"));
  EXPECT_EQ(lines_of(result, "RNR506"),
            (std::vector<std::size_t>{16, 17}));
}

// --- drift (RNR510) ---------------------------------------------------------

TEST(Racecheck, Rnr510FlagsUndeclaredSite) {
  const auto result = run_fixture("rnr510_undeclared_site.cpp",
                                  "src/fixture.cpp",
                                  drive_spec("src/fixture.cpp"));
  EXPECT_EQ(lines_of(result, "RNR510"), (std::vector<std::size_t>{18}));
}

TEST(Racecheck, Rnr510FlagsMissingRegionFile) {
  rc::Spec spec = drive_spec("src/ghost.cpp");
  rc::Driver driver(std::move(spec), "spec.toml");
  driver.add_file("src/fixture.cpp", read_fixture("clean_region.cpp"));
  const auto result = driver.run();
  // The clean file's site is undeclared AND the declared region is dead.
  ASSERT_EQ(lines_of(result, "RNR510").size(), 2u);
  bool spec_anchored = false;
  for (const auto& finding : result.findings) {
    if (finding.file == "spec.toml") spec_anchored = true;
  }
  EXPECT_TRUE(spec_anchored);
}

TEST(Racecheck, Rnr510FlagsRegionWhoseFunctionIsGone) {
  rc::Spec spec = drive_spec("src/fixture.cpp");
  spec.regions[0].function = "vanished";
  const auto result =
      run_fixture("clean_region.cpp", "src/fixture.cpp", std::move(spec));
  ASSERT_FALSE(lines_of(result, "RNR510").empty());
}

TEST(Racecheck, PartialRunsSkipDeadRegionChecks) {
  rc::Spec spec = drive_spec("src/ghost.cpp");
  rc::Driver driver(std::move(spec), "spec.toml");
  driver.add_file("src/other.cpp", "int x = 0;\n");
  driver.set_partial(true);
  const auto result = driver.run();
  EXPECT_TRUE(result.findings.empty());
}

// --- member / argument / context spawn forms --------------------------------

TEST(Racecheck, MemberSpawnWithContextIndex) {
  const std::string content = R"(
void drive(Runner& runner, std::size_t trials) {
  std::vector<double> slots(trials);
  runner.run(trials, [&](TrialContext& trial) {
    slots[trial.index] = trial.rng.uniform();
    slots[0] = 1.0;
  });
}
)";
  rc::Spec spec;
  rc::SpawnSpec spawn;
  spawn.name = "runner";
  spawn.callee = "run";
  spawn.receiver = "Runner";
  spawn.index = "context";
  spec.spawns.push_back(spawn);
  rc::RegionSpec region;
  region.name = "fanout";
  region.file = "src/fixture.cpp";
  region.function = "drive";
  region.spawn = "runner";
  region.slots = {"slots"};
  spec.regions.push_back(region);
  rc::Driver driver(std::move(spec), "spec.toml");
  driver.add_file("src/fixture.cpp", content);
  driver.set_partial(true);
  const auto result = driver.run();
  // slots[trial.index] is the sanctioned slot write; slots[0] is not.
  EXPECT_EQ(lines_of(result, "RNR503"), (std::vector<std::size_t>{6}));
  EXPECT_TRUE(lines_of(result, "RNR501").empty());
}

TEST(Racecheck, NumberedArgumentSelectsTheParallelCallable) {
  const std::string content = R"(
void drive(std::size_t n) {
  std::vector<int> merged;
  sweep(n, [&](std::size_t i) { merged.push_back(static_cast<int>(i)); },
        [&](std::size_t i) { return i; });
}
)";
  rc::Spec spec;
  rc::SpawnSpec spawn;
  spawn.name = "sweep";
  spawn.callee = "sweep";
  spawn.arg = "2";
  spawn.index = "param";
  spec.spawns.push_back(spawn);
  rc::RegionSpec region;
  region.name = "sweeps";
  region.file_prefix = "src/";
  region.spawn = "sweep";
  spec.regions.push_back(region);
  rc::Driver driver(std::move(spec), "spec.toml");
  driver.add_file("src/fixture.cpp", content);
  driver.set_partial(true);
  const auto result = driver.run();
  EXPECT_EQ(lines_of(result, "RNR504"), (std::vector<std::size_t>{4}));
}

// --- suppressions -----------------------------------------------------------

TEST(Racecheck, InlineAllowSuppressesAndRecordsTheFinding) {
  const auto result = run_fixture("suppressions.cpp", "src/fixture.cpp",
                                  drive_spec("src/fixture.cpp"));
  EXPECT_TRUE(lines_of(result, "RNR501").empty());
  EXPECT_EQ(result.suppressed, 1u);
  ASSERT_EQ(result.suppressed_findings.size(), 1u);
  EXPECT_EQ(result.suppressed_findings[0].rule, "RNR501");
  EXPECT_EQ(result.suppressed_findings[0].line, 15u);
}

TEST(Racecheck, StaleSuppressionIsReported) {
  const auto result = run_fixture("suppressions.cpp", "src/fixture.cpp",
                                  drive_spec("src/fixture.cpp"));
  ASSERT_EQ(result.stale.size(), 1u);
  EXPECT_EQ(result.stale[0].rule, "RNR503");
  EXPECT_EQ(result.stale[0].line, 16u);
  EXPECT_EQ(result.stale[0].file, "src/fixture.cpp");
}

TEST(Racecheck, Rnr590FlagsMalformedSuppressions) {
  const auto result = run_fixture("rnr590_malformed.cpp", "src/fixture.cpp",
                                  drive_spec("src/fixture.cpp"));
  EXPECT_EQ(lines_of(result, "RNR590").size(), 3u);
}

TEST(Racecheck, AllowCarveOutDisablesARulePerPath) {
  rc::Spec spec = drive_spec("src/fixture.cpp");
  spec.allow["RNR590"] = {"src/"};
  const auto result =
      run_fixture("rnr590_malformed.cpp", "src/fixture.cpp", std::move(spec));
  EXPECT_TRUE(lines_of(result, "RNR590").empty());
}

// --- the real spec against the real tree ------------------------------------
// (The ctest entry racecheck_test runs reconfnet_check against the
// repository; this just pins that the shipped spec parses.)

TEST(Racecheck, ShippedSpecParses) {
  const std::string text = reconfnet::toolcheck::read_fixture_file(
      RECONFNET_RACECHECK_SPEC_DIR, "concurrency.toml");
  rc::Spec spec;
  std::string error;
  ASSERT_TRUE(rc::parse_spec(text, spec, error)) << error;
  EXPECT_GE(spec.spawns.size(), 5u);
  EXPECT_GE(spec.regions.size(), 6u);
}

}  // namespace
