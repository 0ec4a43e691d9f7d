// Tests for reconfnet_protocheck (tools/protocheck/): one test per RNP rule
// id, driven by the fixtures in tests/protocheck_fixtures/, plus coverage for
// the protocol.toml parser, the suppression syntax, partial runs, and the
// SARIF export. Each fixture carries a deliberately seeded regression (orphan
// message, wrong bits formula, pointer-bearing payload, phase violation, ...)
// that the matching test pins to exact finding lines. The fixtures directory
// is excluded from both repo-wide tool walks, so the violations never reach
// the real gates; the tests feed them to the Driver under synthetic paths.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/protocheck/protocheck.hpp"
#include "toolcheck_util.hpp"

namespace pc = reconfnet::protocheck;

using reconfnet::toolcheck::lines_of;

namespace {

std::string read_fixture(const std::string& name) {
  return reconfnet::toolcheck::read_fixture_file(
      RECONFNET_PROTOCHECK_FIXTURES, name);
}

/// A [[message]] entry whose senders and receivers are exactly `file`.
pc::MessageSpec message(const std::string& name, const std::string& file,
                        const std::vector<std::string>& bits,
                        std::size_t line = 1) {
  pc::MessageSpec msg;
  msg.name = name;
  msg.file = file;
  msg.subsystem = "fixture";
  msg.senders = {file};
  msg.receivers = {file};
  msg.bits = bits;
  msg.line = line;
  return msg;
}

pc::Driver::Result run_fixture(const std::string& fixture,
                               const std::string& as_path, pc::Spec spec) {
  pc::Driver driver(std::move(spec), "spec.toml");
  driver.add_file(as_path, read_fixture(fixture));
  return driver.run();
}

using Lines = std::vector<std::size_t>;

// ---------------------------------------------------------------------------
// Spec parser

TEST(ProtocheckSpec, ParsesFullSpec) {
  const std::string toml =
      "[options]\n"
      "roots = [\"src/\", \"bench/\"]\n"
      "\n"
      "[[message]]\n"
      "name = \"PingMsg\"\n"
      "file = \"src/a.cpp\"\n"
      "subsystem = \"fixture\"\n"
      "senders = [\"src/a.cpp\", \"src/b.cpp\"]\n"
      "receivers = [\"src/\"]\n"
      "bits = [\"kBits\", \"kBits + 1\"]\n"
      "\n"
      "[[constant]]\n"
      "name = \"fixture.bits\"\n"
      "file = \"src/a.cpp\"\n"
      "code = \"const int kBits = 8\"\n"
      "note = \"documentation only\"\n"
      "\n"
      "[allow]\n"
      "RNP307 = [\"src/legacy/\"]\n";
  pc::Spec spec;
  std::string error;
  ASSERT_TRUE(pc::parse_spec(toml, spec, error)) << error;
  EXPECT_EQ(spec.roots, (std::vector<std::string>{"src/", "bench/"}));
  ASSERT_EQ(spec.messages.size(), 1u);
  EXPECT_EQ(spec.messages[0].name, "PingMsg");
  EXPECT_EQ(spec.messages[0].file, "src/a.cpp");
  EXPECT_EQ(spec.messages[0].subsystem, "fixture");
  EXPECT_EQ(spec.messages[0].senders,
            (std::vector<std::string>{"src/a.cpp", "src/b.cpp"}));
  EXPECT_EQ(spec.messages[0].receivers, (std::vector<std::string>{"src/"}));
  EXPECT_EQ(spec.messages[0].bits,
            (std::vector<std::string>{"kBits", "kBits + 1"}));
  EXPECT_EQ(spec.messages[0].line, 4u);
  ASSERT_EQ(spec.constants.size(), 1u);
  EXPECT_EQ(spec.constants[0].name, "fixture.bits");
  EXPECT_EQ(spec.constants[0].code, "const int kBits = 8");
  EXPECT_EQ(spec.constants[0].line, 12u);
  ASSERT_EQ(spec.allow.count("RNP307"), 1u);
  EXPECT_EQ(spec.allow.at("RNP307"),
            (std::vector<std::string>{"src/legacy/"}));
}

TEST(ProtocheckSpec, RealProtocolTomlParses) {
  std::ifstream in(RECONFNET_PROTOCHECK_SPEC);
  ASSERT_TRUE(in) << "cannot open " << RECONFNET_PROTOCHECK_SPEC;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  pc::Spec spec;
  std::string error;
  ASSERT_TRUE(pc::parse_spec(buffer.str(), spec, error)) << error;
  EXPECT_EQ(spec.roots, (std::vector<std::string>{"src/"}));
  EXPECT_GE(spec.messages.size(), 9u);
  EXPECT_GE(spec.constants.size(), 14u);
  for (const pc::MessageSpec& msg : spec.messages) {
    EXPECT_FALSE(msg.subsystem.empty()) << msg.name;
  }
}

TEST(ProtocheckSpec, RejectsMalformedInput) {
  pc::Spec spec;
  std::string error;

  EXPECT_FALSE(pc::parse_spec("[bogus]\nx = \"y\"\n", spec, error));
  EXPECT_NE(error.find("unknown section"), std::string::npos) << error;

  EXPECT_FALSE(pc::parse_spec("[[message]]\ncolor = \"red\"\n", spec, error));
  EXPECT_NE(error.find("unknown message key"), std::string::npos) << error;

  EXPECT_FALSE(pc::parse_spec("[[message]]\nname = \"M\"\n", spec, error));
  EXPECT_NE(error.find("needs name, file, subsystem"), std::string::npos)
      << error;

  // bits must be an array, name must be a string.
  EXPECT_FALSE(
      pc::parse_spec("[[message]]\nbits = \"kBits\"\n", spec, error));
  EXPECT_NE(error.find("needs an array"), std::string::npos) << error;
  EXPECT_FALSE(
      pc::parse_spec("[[message]]\nname = [\"M\"]\n", spec, error));
  EXPECT_NE(error.find("needs a string"), std::string::npos) << error;

  EXPECT_FALSE(
      pc::parse_spec("[[constant]]\ncode = [\"int x\"]\n", spec, error));
  EXPECT_NE(error.find("needs a string"), std::string::npos) << error;

  EXPECT_FALSE(pc::parse_spec("[options]\ncolor = \"red\"\n", spec, error));
  EXPECT_NE(error.find("unknown option"), std::string::npos) << error;

  EXPECT_FALSE(pc::parse_spec("[allow]\nRNP307 = \"src/\"\n", spec, error));
  EXPECT_NE(error.find("bad allow array"), std::string::npos) << error;

  // The TOML subset keeps arrays on one line.
  EXPECT_FALSE(pc::parse_spec(
      "[[message]]\nbits = [\"a\",\n\"b\"]\n", spec, error));
  EXPECT_FALSE(error.empty());
}

TEST(ProtocheckSpec, RejectsDuplicateMessages) {
  const std::string toml =
      "[[message]]\n"
      "name = \"M\"\nfile = \"src/a.cpp\"\nsubsystem = \"x\"\n"
      "senders = [\"src/\"]\nreceivers = [\"src/\"]\nbits = [\"b\"]\n"
      "[[message]]\n"
      "name = \"M\"\nfile = \"src/a.cpp\"\nsubsystem = \"x\"\n"
      "senders = [\"src/\"]\nreceivers = [\"src/\"]\nbits = [\"b\"]\n";
  pc::Spec spec;
  std::string error;
  EXPECT_FALSE(pc::parse_spec(toml, spec, error));
  EXPECT_NE(error.find("duplicate message"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Rules

TEST(ProtocheckRules, CleanProtocolShapeHasNoFindings) {
  pc::Spec spec;
  spec.messages.push_back(
      message("PingMsg", "src/fx/clean.cpp", {"kPingBits"}));
  const auto result =
      run_fixture("clean_protocol.cpp", "src/fx/clean.cpp", spec);
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.suppressed, 0u);
  EXPECT_EQ(result.files_checked, 1u);
}

TEST(ProtocheckRules, Rnp301FlagsSpecUnknownMessage) {
  const auto result = run_fixture("rnp301_unknown_message.cpp",
                                  "src/fx/stray.cpp", pc::Spec{});
  EXPECT_EQ(lines_of(result, "RNP301"), (Lines{9}));
  EXPECT_EQ(result.findings.size(), 1u);
}

TEST(ProtocheckRules, Rnp302And303FlagOrphanSpecMessages) {
  // The spec entry is parsed from TOML so the findings anchor to its line.
  const std::string toml =
      "[[message]]\n"
      "name = \"OrphanMsg\"\nfile = \"src/fx/orphan.cpp\"\n"
      "subsystem = \"fixture\"\n"
      "senders = [\"src/fx/orphan.cpp\"]\n"
      "receivers = [\"src/fx/orphan.cpp\"]\n"
      "bits = [\"kOrphanBits\"]\n";
  pc::Spec spec;
  std::string error;
  ASSERT_TRUE(pc::parse_spec(toml, spec, error)) << error;
  pc::Driver driver(spec, "spec.toml");
  driver.add_file("src/fx/orphan.cpp",
                  read_fixture("rnp302_orphan_message.cpp"));
  const auto result = driver.run();
  EXPECT_EQ(lines_of(result, "RNP302"), (Lines{1}));
  EXPECT_EQ(lines_of(result, "RNP303"), (Lines{1}));
  for (const auto& finding : result.findings) {
    EXPECT_EQ(finding.file, "spec.toml");
  }
}

TEST(ProtocheckRules, Rnp304And305FlagIllegalEndpoints) {
  pc::Spec spec;
  auto msg =
      message("RestrictedMsg", "src/fx/restricted.cpp", {"kRestrictedBits"});
  msg.senders = {"src/other.cpp"};
  msg.receivers = {"src/other.cpp"};
  spec.messages.push_back(msg);
  const auto result =
      run_fixture("rnp304_wrong_endpoint.cpp", "src/fx/restricted.cpp", spec);
  EXPECT_EQ(lines_of(result, "RNP304"), (Lines{11}));
  EXPECT_EQ(lines_of(result, "RNP305"), (Lines{13}));
}

TEST(ProtocheckRules, Rnp306FlagsDriftedBitsExpression) {
  pc::Spec spec;
  spec.messages.push_back(
      message("MeteredMsg", "src/fx/metered.cpp", {"kMeteredBits"}));
  const auto result =
      run_fixture("rnp306_wrong_bits.cpp", "src/fx/metered.cpp", spec);
  // The first send matches the spec formula; only the drifted one fires.
  EXPECT_EQ(lines_of(result, "RNP306"), (Lines{12}));
  EXPECT_EQ(result.findings.size(), 1u);
}

TEST(ProtocheckRules, Rnp306NormalizesWhitespace) {
  // Same formula, different spacing: the tokenizer canonicalizes both sides.
  pc::Spec spec;
  spec.messages.push_back(
      message("MeteredMsg", "src/fx/metered.cpp", {"  kMeteredBits  "}));
  const auto result =
      run_fixture("rnp306_wrong_bits.cpp", "src/fx/metered.cpp", spec);
  EXPECT_EQ(lines_of(result, "RNP306"), (Lines{12}));
}

TEST(ProtocheckRules, Rnp307FlagsEveryWireUnsafeMemberFlavour) {
  pc::Spec spec;
  spec.messages.push_back(message("BadMsg", "src/fx/bad.cpp", {"kBadBits"}));
  const auto result =
      run_fixture("rnp307_impure_payload.cpp", "src/fx/bad.cpp", spec);
  // raw pointer, shared_ptr, double, unordered_map, pointer alias, and the
  // transitive hit through `Nested nested` — the plain int stays clean.
  EXPECT_EQ(lines_of(result, "RNP307"), (Lines{13, 14, 15, 16, 17, 18}));
}

TEST(ProtocheckRules, Rnp308FlagsPhaseOrderViolations) {
  pc::Spec spec;
  spec.messages.push_back(message("LateMsg", "src/fx/late.cpp", {"kLateBits"}));
  const auto result =
      run_fixture("rnp308_send_after_step.cpp", "src/fx/late.cpp", spec);
  // Line 17: send after the bus's final step. Line 22: never-stepped bus.
  // The step-alias function is clean: its last event is a step_late() call.
  EXPECT_EQ(lines_of(result, "RNP308"), (Lines{17, 22}));
  EXPECT_EQ(result.findings.size(), 2u);
}

TEST(ProtocheckRules, GenericHelperIsCheckedAtEachCall) {
  pc::Spec spec;
  spec.messages.push_back(
      message("PingMsg", "src/fx/phase.cpp", {"kPingBits"}));
  const auto result =
      run_fixture("generic_helper.cpp", "src/fx/phase.cpp", spec);
  // The helper's own Bus<Msg> is not a message type. Each call binds it:
  // PingMsg counts as sent and consumed (no orphan), the drifted send of the
  // second call fires, and the call with an undeclared type does. The
  // helper steps after every call's sends, so no send is late.
  EXPECT_EQ(lines_of(result, "RNP306"), (Lines{23}));
  EXPECT_EQ(lines_of(result, "RNP301"), (Lines{25}));
  EXPECT_EQ(result.findings.size(), 2u);
}

TEST(ProtocheckRules, Rnp309AcceptsAndRejectsPinnedConstants) {
  pc::ConstantSpec pinned;
  pinned.name = "fixture.pinned_bits";
  pinned.file = "src/fx/pinned.cpp";
  pinned.code = "const unsigned long long kPinnedBits = 64 + 16";
  pinned.line = 7;

  pc::Spec spec;
  spec.constants.push_back(pinned);
  const auto clean =
      run_fixture("rnp309_constant_present.cpp", "src/fx/pinned.cpp", spec);
  EXPECT_TRUE(clean.findings.empty());

  spec.constants[0].code = "const unsigned long long kPinnedBits = 64 + 32";
  const auto drifted =
      run_fixture("rnp309_constant_present.cpp", "src/fx/pinned.cpp", spec);
  EXPECT_EQ(lines_of(drifted, "RNP309"), (Lines{7}));
  EXPECT_EQ(drifted.findings[0].file, "spec.toml");
}

TEST(ProtocheckRules, Rnp309FlagsConstantInUncheckedFile) {
  pc::ConstantSpec ghost;
  ghost.name = "fixture.ghost";
  ghost.file = "src/fx/ghost.cpp";
  ghost.code = "int x = 1";
  ghost.line = 3;
  pc::Spec spec;
  spec.constants.push_back(ghost);
  pc::Driver driver(spec, "spec.toml");
  const auto result = driver.run();
  EXPECT_EQ(lines_of(result, "RNP309"), (Lines{3}));
}

TEST(ProtocheckRules, Rnp310FlagsMissingPayloadStruct) {
  pc::Spec spec;
  spec.messages.push_back(
      message("GhostMsg", "src/fx/ghost.cpp", {"kGhostBits"}, 5));
  // The registered file defines OrphanMsg, not GhostMsg.
  const auto result =
      run_fixture("rnp302_orphan_message.cpp", "src/fx/ghost.cpp", spec);
  EXPECT_EQ(lines_of(result, "RNP310"), (Lines{5}));
  // The orphan rules fire too (nothing sends or consumes GhostMsg).
  EXPECT_EQ(lines_of(result, "RNP302"), (Lines{5}));
  EXPECT_EQ(lines_of(result, "RNP303"), (Lines{5}));
}

TEST(ProtocheckRules, PartialRunsSkipWholeTreeRules) {
  // A partial run (explicit file list) only sees one file; spec entries for
  // absent files must not produce orphan/pin noise.
  pc::Spec spec;
  spec.messages.push_back(
      message("PingMsg", "src/fx/clean.cpp", {"kPingBits"}));
  spec.messages.push_back(
      message("OrphanMsg", "src/fx/orphan.cpp", {"kOrphanBits"}));
  pc::ConstantSpec ghost;
  ghost.name = "fixture.ghost";
  ghost.file = "src/fx/ghost.cpp";
  ghost.code = "int x = 1";
  ghost.line = 3;
  spec.constants.push_back(ghost);

  pc::Driver driver(spec, "spec.toml");
  driver.add_file("src/fx/clean.cpp", read_fixture("clean_protocol.cpp"));
  driver.set_partial(true);
  const auto result = driver.run();
  EXPECT_TRUE(result.findings.empty());
}

TEST(ProtocheckRules, AllowListSwitchesRuleOffByPrefix) {
  pc::Spec spec;
  spec.messages.push_back(message("BadMsg", "src/fx/bad.cpp", {"kBadBits"}));
  spec.allow["RNP307"] = {"src/fx/"};
  const auto result =
      run_fixture("rnp307_impure_payload.cpp", "src/fx/bad.cpp", spec);
  EXPECT_TRUE(lines_of(result, "RNP307").empty());
  // Carve-outs are not counted as suppressions.
  EXPECT_EQ(result.suppressed, 0u);
}

// ---------------------------------------------------------------------------
// Suppressions

TEST(ProtocheckSuppressions, ReasonedSuppressionSilencesAndCounts) {
  pc::Spec spec;
  spec.messages.push_back(message("SupMsg", "src/fx/sup.cpp", {"kSupBits"}));
  const auto result =
      run_fixture("suppression_valid.cpp", "src/fx/sup.cpp", spec);
  // Both placements work: standalone comment above, and same-line.
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.suppressed, 2u);
}

TEST(ProtocheckSuppressions, Rnp390FlagsMissingReasonAndKeepsFinding) {
  pc::Spec spec;
  spec.messages.push_back(message("MalMsg", "src/fx/mal.cpp", {"kMalBits"}));
  const auto result =
      run_fixture("rnp390_malformed_suppression.cpp", "src/fx/mal.cpp", spec);
  EXPECT_EQ(lines_of(result, "RNP390"), (Lines{6}));
  // The malformed comment does not hide the violation it targeted.
  EXPECT_EQ(lines_of(result, "RNP307"), (Lines{6}));
  EXPECT_EQ(result.suppressed, 0u);
}

// ---------------------------------------------------------------------------
// SARIF export

TEST(ProtocheckSarif, EmitsRulesAndResults) {
  std::vector<pc::Finding> findings;
  findings.push_back({"src/fx/bad.cpp", 13, "RNP307", "raw pointer member"});
  findings.push_back({"spec.toml", 1, "RNP302", "orphan \"message\""});
  std::ostringstream out;
  reconfnet::textscan::write_sarif(out, "reconfnet_protocheck",
                                   "tools/protocheck/protocheck.hpp",
                                   findings);
  const std::string sarif = out.str();
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("reconfnet_protocheck"), std::string::npos);
  EXPECT_NE(sarif.find("\"RNP307\""), std::string::npos);
  EXPECT_NE(sarif.find("\"RNP302\""), std::string::npos);
  EXPECT_NE(sarif.find("src/fx/bad.cpp"), std::string::npos);
  // The message with a quote must be escaped, not emitted raw.
  EXPECT_NE(sarif.find("orphan \\\"message\\\""), std::string::npos);
}

}  // namespace
