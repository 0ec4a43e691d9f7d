// reconfnet_protocheck — protocol-conformance checker for the reconfnet tree.
//
// Every theorem the repo reproduces (Theorems 4-7) is a statement about
// messages: who may send what in which round-phase, what each message costs
// in bits (the paper's communication-work measure, Section 1.1), and how the
// blocking rule filters delivery. reconfnet_lint (tools/lint/) enforces
// token-level properties; this tool closes the gap between the paper's
// protocol and the code by checking the sources against a machine-readable
// spec, tools/protocheck/protocol.toml:
//
//   [[message]]  one entry per payload struct: where it is defined, which
//                files may send/consume it, and the legal `bits` expressions
//                at Bus::send call sites (spelled exactly as in the code).
//   [[constant]] a named protocol quantity pinned as a token sequence that
//                must appear verbatim in a given file (id widths, Equation-1
//                envelope, group-size thresholds) — spec<->code drift fails.
//   [options]    `roots`: path prefixes walked by the tree gate.
//   [allow]      rule id -> path prefixes where the rule is off wholesale.
//
// The checker extracts the actual send/handle graph from the sources — every
// `Bus<Msg>` binding, every `.send(from, to, payload, bits)` call with its
// bits expression, every `.inbox(...)` consumption, every `.step(...)`
// (including step-alias lambdas such as `step_bus` that wrap `bus.step`).
// A `Bus<T>` whose T is a type parameter of the function template holding
// it is bound at each call `helper<Msg>(...)`: the sends among the call's
// arguments are Msg's, then come the helper's steps, and its inbox reads
// consume Msg. The checker reports:
//
//   RNP301  Bus<T> binding whose message type the spec does not declare
//   RNP302  spec message never sent anywhere in the tree (orphan)
//   RNP303  spec message never consumed via inbox() (orphan)
//   RNP304  send site in a file the spec does not list as a sender
//   RNP305  inbox site in a file the spec does not list as a receiver
//   RNP306  send-site bits expression not among the spec's formulas
//   RNP307  payload member that cannot go on a wire deterministically:
//           raw/smart pointer, unordered container, or floating point
//           (checked transitively through member structs)
//   RNP308  send after the bus's final step — the round-phase skeleton is
//           receive -> compute -> send -> step, so the message is never
//           delivered (a never-stepped bus flags every send)
//   RNP309  pinned constant's token sequence missing from its file
//   RNP310  payload struct not found in the file the spec declares
//   RNP390  malformed reconfnet-protocheck suppression comment
//
// Suppressions: `// reconfnet-protocheck: allow(RNP307) <reason>` on the
// offending line or alone on the line above. Findings anchored to the spec
// file itself (RNP302/303/309/310) are fixed by editing the spec or the
// code, or carved out via [allow].
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "../lint/textscan.hpp"

namespace reconfnet::protocheck {

using textscan::Finding;
using textscan::SourceFile;
using textscan::strip_source;

/// One [[message]] entry: a payload struct and its wire contract.
struct MessageSpec {
  std::string name;         ///< payload struct name
  std::string file;         ///< repo-relative file defining the struct
  std::string subsystem;    ///< sampling | churn | dos | estimate | ...
  std::vector<std::string> senders;    ///< path prefixes allowed to send
  std::vector<std::string> receivers;  ///< path prefixes allowed to consume
  std::vector<std::string> bits;  ///< legal bits expressions, as written
  std::size_t line = 0;           ///< line in protocol.toml
};

/// One [[constant]] entry: a token sequence pinned to a file.
struct ConstantSpec {
  std::string name;
  std::string file;
  std::string code;  ///< must appear in `file` as a token subsequence
  std::size_t line = 0;
};

struct Spec {
  std::vector<std::string> roots = {"src/"};
  std::vector<MessageSpec> messages;
  std::vector<ConstantSpec> constants;
  /// rule id -> path prefixes where the rule is switched off wholesale.
  std::map<std::string, std::vector<std::string>> allow;
};

/// Parses protocol.toml. Returns false and fills `error` on malformed input
/// (unknown sections/keys, missing required fields).
bool parse_spec(const std::string& text, Spec& spec, std::string& error);

/// The static rule catalogue (--list-rules output).
const std::vector<textscan::RuleInfo>& rules();

class Driver {
 public:
  /// `spec_path` is where spec-anchored findings (RNP302/303/309/310) are
  /// reported; it defaults to the canonical location.
  explicit Driver(Spec spec,
                  std::string spec_path = "tools/protocheck/protocol.toml");

  /// Registers a file for the run. Paths must be repo-relative with '/'
  /// separators; contents are stripped immediately.
  void add_file(const std::string& path, const std::string& content);

  /// Partial runs (an explicit file list instead of the full tree) skip the
  /// whole-tree rules: the orphan checks (RNP302/303) and the constant and
  /// payload-location pins for files that were not registered.
  void set_partial(bool partial);

  struct Result {
    std::vector<Finding> findings;  // sorted by (file, line, rule)
    /// Findings dropped by an inline allow or an [allow] carve-out, kept for
    /// SARIF suppression records.
    std::vector<Finding> suppressed_findings;
    /// Inline suppression comments whose rule no longer fires on the line
    /// they cover (the --stale-suppressions report).
    std::vector<textscan::StaleSuppression> stale;
    std::size_t files_checked = 0;
    std::size_t suppressed = 0;
  };

  /// Runs every rule over the registered files. Deterministic: files are
  /// processed in sorted path order and findings are sorted.
  Result run();

 private:
  struct Extraction;

  [[nodiscard]] bool allowed(const std::string& rule,
                             const std::string& path) const;

  Spec spec_;
  std::string spec_path_;
  bool partial_ = false;
  std::map<std::string, SourceFile> files_;
};

}  // namespace reconfnet::protocheck
