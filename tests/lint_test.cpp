// Tests for reconfnet_lint (tools/lint/): one test per rule id, driven by the
// fixture files in tests/lint_fixtures/, plus coverage for the suppression
// syntax, the config parser, and the layer map. The fixtures directory is
// excluded from the repo-wide walk in tools/reconfnet_check.cpp, so the
// deliberate violations below never reach the real gate; the tests feed them
// to the Driver by hand under synthetic repo-relative paths.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/lint/lint.hpp"
#include "toolcheck_util.hpp"

namespace lint = reconfnet::lint;

using reconfnet::toolcheck::lines_of;

namespace {

std::string read_fixture(const std::string& name) {
  return reconfnet::toolcheck::read_fixture_file(RECONFNET_LINT_FIXTURES,
                                                 name);
}

/// A config whose single layer covers everything the determinism/hygiene
/// tests register, so layering never interferes with them.
lint::Config flat_config() {
  lint::Config config;
  config.layers.push_back({"all", {"src/"}});
  return config;
}

/// The two-layer map used by the layering tests: support below runtime.
lint::Config layered_config() {
  lint::Config config;
  config.layers.push_back({"support", {"src/support/"}});
  config.layers.push_back({"runtime", {"src/runtime/"}});
  return config;
}

lint::Driver::Result run_fixture(const std::string& fixture,
                                 const std::string& as_path) {
  lint::Driver driver(flat_config());
  driver.add_file(as_path, read_fixture(fixture));
  return driver.run();
}

using Lines = std::vector<std::size_t>;

TEST(LintDeterminism, Rnl001FlagsRandomDevice) {
  const auto result =
      run_fixture("rnl001_random_device.cpp", "src/rnl001.cpp");
  EXPECT_EQ(lines_of(result, "RNL001"), (Lines{5}));
}

TEST(LintDeterminism, Rnl002FlagsGlobalRandButNotMembers) {
  const auto result = run_fixture("rnl002_global_rand.cpp", "src/rnl002.cpp");
  // The `int rand()` declaration, srand(7), and the trailing rand() call;
  // gen.rand() is member access and stays clean.
  EXPECT_EQ(lines_of(result, "RNL002"), (Lines{8, 12, 15}));
}

TEST(LintDeterminism, Rnl003FlagsClockIncludesAndCalls) {
  const auto result = run_fixture("rnl003_wall_clock.cpp", "src/rnl003.cpp");
  // <chrono>, <ctime>, the std::chrono:: use, and time(nullptr).
  EXPECT_EQ(lines_of(result, "RNL003"), (Lines{3, 4, 7, 8}));
}

TEST(LintDeterminism, Rnl004FlagsBuildStamps) {
  const auto result = run_fixture("rnl004_build_stamp.cpp", "src/rnl004.cpp");
  EXPECT_EQ(lines_of(result, "RNL004"), (Lines{3, 4}));
}

TEST(LintDeterminism, Rnl005FlagsUnorderedIterationOnly) {
  const auto result =
      run_fixture("rnl005_unordered_iteration.cpp", "src/rnl005.cpp");
  // Range-for over the map, range-for over the set member, iterator loop.
  // The vector loop two lines later must stay clean.
  EXPECT_EQ(lines_of(result, "RNL005"), (Lines{14, 15, 16}));
}

TEST(LintDeterminism, Rnl005AcceptsSortedExtraction) {
  const auto result =
      run_fixture("rnl005_sorted_extraction.cpp", "src/sorted.cpp");
  EXPECT_TRUE(result.findings.empty())
      << "sorted-extraction idiom should be clean, got "
      << result.findings.size() << " findings";
}

TEST(LintDeterminism, Rnl006FlagsPointerKeys) {
  const auto result =
      run_fixture("rnl006_pointer_keys.cpp", "src/rnl006.cpp");
  // std::hash<Node*> and reinterpret_cast<std::uintptr_t>.
  EXPECT_EQ(lines_of(result, "RNL006"), (Lines{9, 10}));
}

TEST(LintHygiene, Rnl201FlagsMissingPragmaOnce) {
  const auto result =
      run_fixture("rnl201_missing_pragma.hpp", "src/rnl201.hpp");
  EXPECT_EQ(lines_of(result, "RNL201"), (Lines{1}));
}

TEST(LintHygiene, Rnl202FlagsUsingNamespaceInHeader) {
  const auto result =
      run_fixture("rnl202_using_namespace.hpp", "src/rnl202.hpp");
  EXPECT_EQ(lines_of(result, "RNL202"), (Lines{6}));
  EXPECT_TRUE(lines_of(result, "RNL201").empty()) << "has #pragma once";
}

TEST(LintHygiene, Rnl203FlagsBareNolint) {
  const auto result =
      run_fixture("rnl203_bare_nolint.cpp", "src/rnl203.cpp");
  // The bare and the reason-less suppressions fire; the fixture's justified
  // begin/end pair is accepted.
  EXPECT_EQ(lines_of(result, "RNL203"), (Lines{4, 5}));
}

TEST(LintHygiene, Rnl204FlagsMalformedSuppressions) {
  const auto result =
      run_fixture("rnl204_malformed_suppression.cpp", "src/rnl204.cpp");
  // Empty id list, bad id, and missing reason.
  EXPECT_EQ(lines_of(result, "RNL204"), (Lines{3, 4, 5}));
}

TEST(LintSuppression, SameLineAndLineAboveFormsSuppress) {
  const auto result =
      run_fixture("suppression_valid.cpp", "src/suppressed.cpp");
  EXPECT_TRUE(result.findings.empty())
      << "both rand() calls carry well-formed suppressions";
  EXPECT_EQ(result.suppressed, 2u);
}

TEST(LintSuppression, PathAllowlistSilencesRuleWholesale) {
  lint::Config config = flat_config();
  config.allow["RNL002"] = {"src/legacy/"};
  lint::Driver driver(std::move(config));
  driver.add_file("src/legacy/old.cpp", "int r() { return rand(); }\n");
  const auto result = driver.run();
  EXPECT_TRUE(result.findings.empty());
  // Path allowances are carve-outs, not suppressions; they are not counted.
  EXPECT_EQ(result.suppressed, 0u);
}

TEST(LintLayering, Rnl101FlagsUpwardInclude) {
  lint::Driver driver(layered_config());
  driver.add_file("src/support/low.hpp", read_fixture("layering_low.hpp"));
  driver.add_file("src/runtime/high.hpp", read_fixture("layering_high.hpp"));
  driver.add_file("src/support/upward.cpp",
                  read_fixture("layering_upward.cpp"));
  const auto result = driver.run();
  ASSERT_EQ(lines_of(result, "RNL101"), (Lines{3}));
  // The downward include in high.hpp is legal, so RNL101 is the only hit.
  EXPECT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].file, "src/support/upward.cpp");
}

TEST(LintLayering, Rnl102FlagsUnmappedFileAndUnresolvedInclude) {
  lint::Driver driver(layered_config());
  driver.add_file("scripts/tool.cpp", "int main() { return 0; }\n");
  driver.add_file("src/support/dangling.cpp",
                  "#include \"nowhere/missing.hpp\"\n");
  const auto result = driver.run();
  ASSERT_EQ(result.findings.size(), 2u);
  EXPECT_EQ(result.findings[0].file, "scripts/tool.cpp");
  EXPECT_EQ(result.findings[0].rule, "RNL102");
  EXPECT_EQ(result.findings[0].line, 1u);
  EXPECT_EQ(result.findings[1].file, "src/support/dangling.cpp");
  EXPECT_EQ(result.findings[1].rule, "RNL102");
  EXPECT_EQ(result.findings[1].line, 1u);
}

TEST(LintStrip, CommentsAndStringsDoNotFire) {
  lint::Driver driver(flat_config());
  driver.add_file("src/strings.cpp",
                  "// rand() lives in this comment\n"
                  "const char* label = \"rand() __DATE__ random_device\";\n"
                  "/* time(nullptr) in a block comment */\n");
  const auto result = driver.run();
  EXPECT_TRUE(result.findings.empty());
}

TEST(LintConfig, ParsesLayersAndAllowances) {
  const std::string text =
      "# comment\n"
      "[[layer]]\n"
      "name = \"support\"\n"
      "paths = [\"src/support/\"]\n"
      "\n"
      "[[layer]]\n"
      "name = \"runtime\"\n"
      "paths = [\"src/runtime/\", \"tools/\"]\n"
      "\n"
      "[allow]\n"
      "RNL003 = [\"bench/common.hpp\"]\n";
  lint::Config config;
  std::string error;
  ASSERT_TRUE(lint::parse_config(text, config, error)) << error;
  ASSERT_EQ(config.layers.size(), 2u);
  EXPECT_EQ(config.layers[0].name, "support");
  EXPECT_EQ(config.layers[1].paths,
            (std::vector<std::string>{"src/runtime/", "tools/"}));
  ASSERT_EQ(config.allow.count("RNL003"), 1u);
  EXPECT_EQ(config.allow.at("RNL003"),
            (std::vector<std::string>{"bench/common.hpp"}));
}

TEST(LintConfig, RejectsMalformedInput) {
  lint::Config config;
  std::string error;
  EXPECT_FALSE(
      lint::parse_config("[[layer]]\nname = \"x\"\npaths = 7\n", config,
                         error));
  EXPECT_FALSE(error.empty());
}

TEST(LintConfig, RepoLayerMapParsesAndCoversKnownFiles) {
  // The shipped layers.toml must stay parseable and must map the core tree.
  std::ifstream in(std::string(RECONFNET_LINT_LAYERS));
  ASSERT_TRUE(in) << "cannot open " << RECONFNET_LINT_LAYERS;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  lint::Config config;
  std::string error;
  ASSERT_TRUE(lint::parse_config(buffer.str(), config, error)) << error;
  EXPECT_GE(config.layers.size(), 8u);
  lint::Driver driver(std::move(config));
  driver.add_file("src/support/probe.cpp", "int probe() { return 0; }\n");
  driver.add_file("tests/probe_test.cpp", "int probe() { return 0; }\n");
  const auto result = driver.run();
  EXPECT_TRUE(lines_of(result, "RNL102").empty())
      << "core paths must be covered by the shipped layer map";
}

// --- shared TOML-subset parser edge cases ----------------------------------
// All three checkers (lint, protocheck, hotcheck) read their specs through
// textscan::parse_toml_subset, so its corner behavior is pinned here once.

namespace textscan = reconfnet::textscan;

std::vector<textscan::TomlSection> parse_ok(const std::string& text) {
  std::vector<textscan::TomlSection> sections;
  std::string error;
  EXPECT_TRUE(textscan::parse_toml_subset(text, sections, error)) << error;
  return sections;
}

TEST(TextscanToml, EmptyTablesAreValidAndKeepTheirNames) {
  // hotpaths.toml ships a deliberately empty [allow] table.
  const auto sections = parse_ok("[allow]\n\n[[hotpath]]\nname = \"x\"\n");
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].name, "allow");
  EXPECT_FALSE(sections[0].is_array_of_tables);
  EXPECT_TRUE(sections[0].entries.empty());
  EXPECT_EQ(sections[1].name, "hotpath");
  EXPECT_TRUE(sections[1].is_array_of_tables);
}

TEST(TextscanToml, TrailingCommentsAfterValuesAreStripped) {
  const auto sections = parse_ok(
      "[t]\n"
      "a = [\"x\", \"y\"]  # comment after an array\n"
      "b = \"v\" # comment after a scalar\n");
  ASSERT_EQ(sections.size(), 1u);
  ASSERT_EQ(sections[0].entries.size(), 2u);
  EXPECT_EQ(sections[0].entries[0].items,
            (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(sections[0].entries[1].scalar, "v");
}

TEST(TextscanToml, HashInsideQuotedStringsIsNotAComment) {
  const auto sections =
      parse_ok("[t]\na = \"x#y\"\nb = [\"p#q\", \"r\"]\n");
  ASSERT_EQ(sections[0].entries.size(), 2u);
  EXPECT_EQ(sections[0].entries[0].scalar, "x#y");
  EXPECT_EQ(sections[0].entries[1].items,
            (std::vector<std::string>{"p#q", "r"}));
}

TEST(TextscanToml, CrlfInputParsesIdenticallyToLf) {
  const auto sections =
      parse_ok("[t]\r\nk = \"v\"\r\n\r\n[[u]]\r\nm = [\"a\"]\r\n");
  ASSERT_EQ(sections.size(), 2u);
  ASSERT_EQ(sections[0].entries.size(), 1u);
  EXPECT_EQ(sections[0].entries[0].scalar, "v");
  ASSERT_EQ(sections[1].entries.size(), 1u);
  EXPECT_EQ(sections[1].entries[0].items,
            (std::vector<std::string>{"a"}));
}

TEST(TextscanToml, EmptyArrayValueYieldsNoItems) {
  const auto sections = parse_ok("[t]\nk = []\n");
  ASSERT_EQ(sections[0].entries.size(), 1u);
  EXPECT_TRUE(sections[0].entries[0].is_array);
  EXPECT_TRUE(sections[0].entries[0].items.empty());
}

// --- shared SARIF writer ----------------------------------------------------
// reconfnet_check (tools/reconfnet_check.cpp) writes the findings of all
// five checker families through one textscan::write_sarif call, so the
// writer must keep every family's rule ids distinct in one run and mark
// suppressed results. Findings from two families (lint RNL ids, racecheck
// RNR ids) in one run pin that nothing in the writer assumes a single rule
// prefix.

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TextscanSarif, TwoToolRuleSetsShareOneRunWithoutCollisions) {
  const std::vector<textscan::Finding> findings = {
      {"src/support/rng.cpp", 12, "RNL004", "rand() call"},
      {"src/runtime/pool.cpp", 40, "RNR501", "shared mutation \"total\""},
      {"src/runtime/pool.cpp", 44, "RNR503", "writes slots[0]"},
      {"src/support/rng.cpp", 30, "RNL004", "second rand() call"},
  };
  const std::vector<textscan::Finding> suppressed = {
      {"bench/common.hpp", 7, "RNL003", "time() in timing block"},
      {"src/runtime/pool.cpp", 52, "RNR501", "documented reduction"},
  };
  std::ostringstream out;
  textscan::write_sarif(out, "reconfnet_checks", "tools/run_checks.sh",
                        findings, suppressed);
  const std::string sarif = out.str();

  // Rule ids from both tools appear, deduplicated, in the driver's rules
  // array — RNL004 has two results and RNR501 one live + one suppressed,
  // but each descriptor is emitted once.
  EXPECT_EQ(count_of(sarif, "{\"id\": \"RNL003\"}"), 1u);
  EXPECT_EQ(count_of(sarif, "{\"id\": \"RNL004\"}"), 1u);
  EXPECT_EQ(count_of(sarif, "{\"id\": \"RNR501\"}"), 1u);
  EXPECT_EQ(count_of(sarif, "{\"id\": \"RNR503\"}"), 1u);

  // Every finding becomes a result with its own region URI and line.
  EXPECT_EQ(count_of(sarif, "\"uri\": \"src/support/rng.cpp\""), 2u);
  EXPECT_EQ(count_of(sarif, "\"uri\": \"src/runtime/pool.cpp\""), 3u);
  EXPECT_EQ(count_of(sarif, "\"uri\": \"bench/common.hpp\""), 1u);
  EXPECT_NE(sarif.find("\"startLine\": 12"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 52"), std::string::npos);

  // Exactly the two suppressed results carry an inSource suppression record.
  EXPECT_EQ(count_of(sarif, "\"suppressions\": [{\"kind\": \"inSource\"}]"),
            2u);
  EXPECT_EQ(count_of(sarif, "\"ruleId\""), 6u);

  // Message text is JSON-escaped.
  EXPECT_NE(sarif.find("shared mutation \\\"total\\\""), std::string::npos);

  // The whole log parses as the single-run SARIF 2.1.0 shape the merge step
  // concatenates.
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_EQ(count_of(sarif, "\"name\": \"reconfnet_checks\""), 1u);
}

TEST(TextscanSarif, EmptyRunAndZeroLineAreWellFormed) {
  std::ostringstream out;
  textscan::write_sarif(out, "reconfnet_lint", "tools/lint/lint.hpp", {});
  const std::string sarif = out.str();
  EXPECT_NE(sarif.find("\"rules\": []"), std::string::npos);
  EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);

  // A finding with no line number clamps to startLine 1 (SARIF requires a
  // positive line).
  std::ostringstream out2;
  textscan::write_sarif(out2, "reconfnet_lint", "tools/lint/lint.hpp",
                        {{"src/a.cpp", 0, "RNL001", "file-scope finding"}});
  EXPECT_NE(out2.str().find("\"startLine\": 1"), std::string::npos);
}

}  // namespace
