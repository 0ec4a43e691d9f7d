// Shared scaffolding for the static-checker test suites (lint_test.cpp,
// protocheck_test.cpp, hotcheck_test.cpp, racecheck_test.cpp,
// oraclecheck_test.cpp). Each suite drives its family's Driver in-process
// against fixture files under tests/<family>_fixtures/; the helpers here are
// the family-independent parts: reading a fixture off disk and projecting a
// Result down to the lines one rule fired on.
//
// The families share the textscan Finding/Result shape but are otherwise
// separate types, so `lines_of` is a template over any result holding a
// `findings` vector of textscan::Finding.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace reconfnet::toolcheck {

/// Reads `dir/name` into a string; fails the current test (and returns
/// empty) when the fixture is missing. `dir` is the tool's fixture
/// directory, injected by CMake as a compile definition.
inline std::string read_fixture_file(const std::string& dir,
                                     const std::string& name) {
  const std::string path = dir + "/" + name;
  std::ifstream in(path);
  if (!in) ADD_FAILURE() << "cannot open fixture " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Lines on which `rule` fired, in report order.
template <typename Result>
std::vector<std::size_t> lines_of(const Result& result,
                                  const std::string& rule) {
  std::vector<std::size_t> lines;
  for (const auto& finding : result.findings) {
    if (finding.rule == rule) lines.push_back(finding.line);
  }
  return lines;
}

}  // namespace reconfnet::toolcheck
