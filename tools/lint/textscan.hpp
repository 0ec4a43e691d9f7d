// Shared source-scanning machinery for the five reconfnet static-checker
// families (tools/lint/, tools/protocheck/, tools/hotcheck/,
// tools/racecheck/, tools/oraclecheck/), all run by one CLI,
// tools/reconfnet_check.cpp.
//
// The checkers are deliberately zero-dependency: they tokenise and
// light-parse the sources themselves (no libclang), so they build and run on
// the gcc-only dev container and in CI alike, and reconfnet_check can be
// bootstrap-compiled from a handful of files with no build tree configured. Everything that is
// not rule logic lives here:
//
//   * Finding              — one rule-coded diagnostic (file:line: RULE msg)
//   * strip_source         — comment/string stripping preserving line structure
//   * tokenize             — identifier/punctuation token stream
//   * collect_suppressions — `<marker> allow(XYZnnn) reason` comments, with
//                            the marker and rule prefix chosen per tool
//   * parse_toml_subset    — the small TOML dialect both config files use
//                            ([[table]] arrays, [table]s, string/array values)
//   * write_sarif          — SARIF 2.1.0 export for CI code-scanning upload
#pragma once

#include <cstddef>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace reconfnet::textscan {

// ---------------------------------------------------------------------------
// Findings

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;      // "RNL001", "RNP304", ...
  std::string message;
};

/// Sorts by (file, line, rule) and drops exact (file, line, rule) duplicates
/// (two scans may flag the same site). The canonical report order.
void sort_and_dedupe(std::vector<Finding>& findings);

// ---------------------------------------------------------------------------
// Small string helpers

bool starts_with(const std::string& s, const char* prefix);
std::string trim(const std::string& s);
bool is_ident_char(char c);
bool is_ident_start(char c);
std::string dirname_of(const std::string& path);

/// True when `path` starts with any of the given repo-relative prefixes.
bool matches_any_prefix(const std::string& path,
                        const std::vector<std::string>& prefixes);

/// Collapses "." and ".." components lexically ("tools/protocheck/../lint/x"
/// -> "tools/lint/x"). Leading ".." components are preserved.
std::string lexical_normalize(const std::string& path);

// ---------------------------------------------------------------------------
// Stripped source files

/// A source file after comment/string stripping. `code` holds the stripped
/// lines (comments and string/char literal contents blanked, line structure
/// preserved); `comments` holds the comment text found on each line, which is
/// where suppressions and NOLINT markers live.
struct SourceFile {
  std::string path;
  std::vector<std::string> code;
  std::vector<std::string> comments;
  /// Quoted includes: line number -> include path as written.
  std::vector<std::pair<std::size_t, std::string>> includes;
  [[nodiscard]] bool is_header() const;
};

/// Strips `text` into a SourceFile. Handles //, /* */, string/char literals
/// and raw strings; include targets are captured before stripping.
SourceFile strip_source(std::string path, const std::string& text);

// ---------------------------------------------------------------------------
// Token stream over the stripped source

struct Tok {
  enum class Kind { kIdent, kPunct } kind;
  std::string text;
  std::size_t line;  // 1-based
};

std::vector<Tok> tokenize(const std::vector<std::string>& code);

bool tok_is(const std::vector<Tok>& t, std::size_t i, const char* text);

/// `i` points at `<`; returns the index one past the matching `>`, or
/// `t.size()` if unbalanced. Good enough for type contexts, where comparison
/// operators cannot appear.
std::size_t skip_angles(const std::vector<Tok>& t, std::size_t i);

bool bracket_is_open(const std::string& t);   // ( { [
bool bracket_is_close(const std::string& t);  // ) } ]

/// `i` points at an opening bracket; returns the index of its matching
/// closer, or `t.size()` if unbalanced.
std::size_t match_bracket(const std::vector<Tok>& t, std::size_t i);

const std::set<std::string>& cpp_keywords();

// ---------------------------------------------------------------------------
// Light function / loop parsing over the token stream
//
// Shared by the checkers that reason about function bodies (hotcheck's hot
// regions, racecheck's parallel regions). All of this is heuristic
// light-parsing — good enough for the repo's house style, not a C++ grammar.

/// Keywords that can precede `name (` without `name` being a function
/// definition.
const std::set<std::string>& non_definition_preceders();

/// One function definition found in a token stream. Ranges are token
/// indices; `params` covers the tokens strictly inside the parameter list
/// parens, `body` the tokens strictly inside the outermost braces.
struct FunctionBody {
  std::string name;
  std::size_t line = 0;
  std::size_t params_begin = 0;
  std::size_t params_end = 0;
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

/// Finds definitions of `name` in `toks`. Tolerates qualified names,
/// trailing const/noexcept/ref-qualifiers, trailing return types and
/// constructor initializer lists; rejects plain calls and declarations by
/// requiring a `{` body reached through definition-shaped tokens only.
std::vector<FunctionBody> find_functions(const std::vector<Tok>& toks,
                                         const std::string& name);

/// Token range of one loop body (for/while/do) inside a function body.
struct LoopRange {
  std::size_t head = 0;  // token index of the loop keyword
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::vector<LoopRange> collect_loops(const std::vector<Tok>& toks,
                                     std::size_t begin, std::size_t end);

// ---------------------------------------------------------------------------
// Suppressions

/// One well-formed suppression comment, kept per-comment (in addition to the
/// merged line->rules map) so stale-suppression reporting can point at the
/// exact comment whose rule no longer fires.
struct SuppressionComment {
  std::size_t line = 0;             ///< line carrying the comment
  std::vector<std::size_t> covers;  ///< lines whose findings it suppresses
  std::set<std::string> rules;
};

struct LineSuppressions {
  /// line -> rule ids allowed on that line.
  std::map<std::size_t, std::set<std::string>> allow;
  /// lines carrying a malformed suppression comment.
  std::vector<std::size_t> malformed;
  /// every well-formed suppression comment, in file order.
  std::vector<SuppressionComment> comments;
};

/// Collects `<marker> allow(<prefix>nnn[, ...]) reason` suppressions from a
/// file's comments. `marker` is the tool tag (e.g. "reconfnet-lint:"),
/// `rule_prefix` the three-letter rule family (e.g. "RNL"); ids must be the
/// prefix plus exactly three digits and the trailing reason is mandatory.
/// A comment alone on its line suppresses the next line that has code on it.
LineSuppressions collect_suppressions(const SourceFile& file,
                                      const std::string& marker,
                                      const std::string& rule_prefix);

/// One suppression comment whose rule no longer fires on the line it covers
/// (the `--stale-suppressions` report unit).
struct StaleSuppression {
  std::string file;
  std::size_t line = 0;  ///< line carrying the now-stale comment
  std::string rule;      ///< the rule id that no longer fires
};

/// Computes the stale subset of a file's suppression comments. `used` holds
/// the (line, rule) pairs that actually suppressed a finding during the run;
/// a comment rule is stale when none of the lines it covers used it.
std::vector<StaleSuppression> stale_suppressions(
    const std::string& path, const LineSuppressions& sup,
    const std::set<std::pair<std::size_t, std::string>>& used);

// ---------------------------------------------------------------------------
// TOML subset

/// One `key = value` entry. Values are either a scalar (quoted string with
/// the quotes removed, or a bare token such as a number) or a string array.
struct TomlEntry {
  std::string key;
  bool is_array = false;
  std::string scalar;
  std::vector<std::string> items;
  std::size_t line = 0;
};

/// One `[name]` table or `[[name]]` array-of-tables element, with its
/// entries in file order.
struct TomlSection {
  std::string name;
  bool is_array_of_tables = false;
  std::size_t line = 0;
  std::vector<TomlEntry> entries;
};

/// Parses the TOML subset shared by layers.toml and protocol.toml: comments,
/// [[section]] / [section] headers, `key = "string"`, `key = bare-token`,
/// and `key = ["a", "b"]`. Returns false and fills `error` (prefixed with
/// "line N: ") on malformed input. Keys before any section header are an
/// error; section-name validation is left to the caller.
bool parse_toml_subset(const std::string& text,
                       std::vector<TomlSection>& sections, std::string& error);

/// Parses `["a", "b"]` into items; returns false on malformed input.
bool parse_string_array(const std::string& value,
                        std::vector<std::string>& items);

// ---------------------------------------------------------------------------
// Standard informational CLI flags

/// Version stamp of reconfnet_check and its five checker families (lint,
/// protocheck, hotcheck, racecheck, oraclecheck); bumped when a rule set or
/// the shared scanning layer changes shape.
inline constexpr const char* kToolsVersion = "1.3.0";

/// One rule id plus its one-line summary — the unit of --list-rules output
/// and of each tool's static rule catalogue.
struct RuleInfo {
  const char* id;
  const char* summary;
};

/// Handles the informational flags every checker accepts: `--version` prints
/// `<tool> <version>`, `--list-rules` prints one `ID<TAB>summary` line per
/// rule. Returns true when `arg` was one of them (the caller exits 0).
bool handle_standard_flag(const std::string& arg, const std::string& tool_name,
                          const std::vector<RuleInfo>& rules,
                          std::ostream& out);

// ---------------------------------------------------------------------------
// SARIF export

/// Writes the findings as a single-run SARIF 2.1.0 log (the format GitHub
/// code scanning ingests), with one reportingDescriptor per distinct rule id.
/// Paths are emitted as given (repo-relative), which is what the upload
/// action expects when run from the repository root. `suppressed` findings
/// are emitted as results carrying an inSource suppression record, which
/// code-scanning displays as dismissed rather than open.
void write_sarif(std::ostream& out, const std::string& tool_name,
                 const std::string& info_uri,
                 const std::vector<Finding>& findings,
                 const std::vector<Finding>& suppressed = {});

}  // namespace reconfnet::textscan
