// reconfnet_check: the one CLI over the repo's five static-checker families.
// Each family is a library with its own rule catalogue and spec:
//
//   lint         tools/lint/        determinism, layering, hygiene (RNL)
//   protocheck   tools/protocheck/  protocol conformance (RNP)
//   hotcheck     tools/hotcheck/    hot-path allocations and copies (RNH)
//   racecheck    tools/racecheck/   concurrency safety (RNR)
//   oraclecheck  tools/oraclecheck/ t-late adversary information flow (RNO)
//
// Every run checks all five. lint walks src/ bench/ tools/ examples/ tests/;
// the other four walk their spec's `roots`. Fixture directories
// (tests/*_fixtures/) carry deliberate violations and are only reachable as
// file arguments.
//
// Usage:
//   reconfnet_check [--root DIR] [--sarif FILE] [--stale-suppressions]
//                   [file...]
//
//   --root DIR    repository root (default: current directory). Specs, file
//                 walks and reported paths are all relative to it.
//   --sarif FILE  also write every family's findings into one SARIF 2.1.0
//                 run (for the CI code-scanning upload); does not change the
//                 exit status
//   --stale-suppressions
//                 report only inline allow() comments whose rule no longer
//                 fires on the line they cover; always exits 0
//   file...       check exactly these files instead of the whole tree;
//                 partial runs skip each family's whole-tree drift rules
//   --version, --list-rules, --help
//                 print the version stamp, every family's rule catalogue
//                 (one `ID<TAB>summary` line per rule) or this usage
//
// Findings go to stdout as `file:line: RULE message`; one summary line per
// family goes to stderr.
//
// Exit status: 0 clean, 1 findings, 2 usage/configuration error.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "hotcheck/hotcheck.hpp"
#include "lint/lint.hpp"
#include "oraclecheck/oraclecheck.hpp"
#include "protocheck/protocheck.hpp"
#include "racecheck/racecheck.hpp"

namespace fs = std::filesystem;
namespace ts = reconfnet::textscan;
using namespace reconfnet;

namespace {

constexpr const char* kUsage =
    "usage: reconfnet_check [--root DIR] [--sarif FILE] "
    "[--stale-suppressions] [--version] [--list-rules] [file...]\n";

/// A usage or configuration problem: reported on stderr, exit status 2.
struct ConfigError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What every family gets to see of the invocation.
struct Invocation {
  fs::path root = ".";
  std::vector<std::string> files;  ///< repo-relative; empty = whole tree
};

/// One family's outcome, as reconfnet_check reports it.
struct Report {
  std::vector<ts::Finding> findings;
  std::vector<ts::Finding> suppressed_findings;
  std::vector<ts::StaleSuppression> stale;
  std::string summary;  ///< "N files, ... M findings (K suppressed)"
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ConfigError("cannot read " + path.generic_string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string repo_relative(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  const fs::path canonical = fs::weakly_canonical(path, ec);
  const fs::path canonical_root = fs::weakly_canonical(root, ec);
  return canonical.lexically_relative(canonical_root).generic_string();
}

/// Repo-relative .cpp/.hpp/.h files under the given root prefixes.
std::set<std::string> walk(const fs::path& root,
                           const std::vector<std::string>& prefixes,
                           bool skip_fixtures) {
  std::set<std::string> paths;
  for (const std::string& prefix : prefixes) {
    const fs::path base = root / prefix;
    if (!fs::exists(base)) continue;
    for (auto it = fs::recursive_directory_iterator(base);
         it != fs::recursive_directory_iterator(); ++it) {
      const std::string ext = it->path().extension().string();
      if (!it->is_regular_file() ||
          (ext != ".cpp" && ext != ".hpp" && ext != ".h")) {
        continue;
      }
      const std::string rel = repo_relative(it->path(), root);
      if (skip_fixtures && rel.find("_fixtures") != std::string::npos) {
        continue;
      }
      paths.insert(rel);
    }
  }
  return paths;
}

/// Registers the run's files with a family driver: the explicit file
/// arguments, or the walk of `roots` for a whole-tree run.
template <typename Driver>
void add_files(Driver& driver, const Invocation& run,
               const std::vector<std::string>& roots) {
  const std::set<std::string> paths =
      run.files.empty() ? walk(run.root, roots, /*skip_fixtures=*/true)
                        : std::set<std::string>(run.files.begin(),
                                                run.files.end());
  if (paths.empty()) throw ConfigError("no input files");
  for (const std::string& rel : paths) {
    driver.add_file(rel, read_file(run.root / rel));
  }
}

// Family-specific counts in the summary line, ahead of the findings count.
std::string counts(const lint::Driver::Result&) { return ""; }
std::string counts(const protocheck::Driver::Result&) { return ""; }
std::string counts(const hotcheck::Driver::Result& result) {
  return std::to_string(result.hot_functions_checked) + " hot functions, ";
}
std::string counts(const racecheck::Driver::Result& result) {
  return std::to_string(result.sites_checked) + " dispatch sites, " +
         std::to_string(result.lambdas_checked) + " parallel lambdas, ";
}
std::string counts(const oraclecheck::Driver::Result& result) {
  return std::to_string(result.adversary_files) + " adversary files, " +
         std::to_string(result.servesites_checked) + " serve sites, ";
}

template <typename Result>
Report to_report(Result result) {
  Report report;
  report.summary = std::to_string(result.files_checked) + " files, " +
                   counts(result) + std::to_string(result.findings.size()) +
                   " findings (" + std::to_string(result.suppressed) +
                   " suppressed)";
  report.findings = std::move(result.findings);
  report.suppressed_findings = std::move(result.suppressed_findings);
  report.stale = std::move(result.stale);
  return report;
}

Report run_lint(const Invocation& run) {
  const std::vector<std::string> roots = {"src", "bench", "tools", "examples",
                                          "tests"};
  lint::Config config;
  std::string error;
  if (!lint::parse_config(read_file(run.root / "tools/lint/layers.toml"),
                          config, error)) {
    throw ConfigError("bad spec tools/lint/layers.toml: " + error);
  }
  lint::Driver driver(std::move(config));
  if (!run.files.empty()) {
    // Partial runs still need the full path universe so quoted includes of
    // unchecked files resolve (and layer-check) instead of looking foreign.
    for (const std::string& rel :
         walk(run.root, roots, /*skip_fixtures=*/false)) {
      driver.add_known_path(rel);
    }
  }
  add_files(driver, run, roots);
  return to_report(driver.run());
}

/// The four spec-driven families share one shape: parse the spec, walk its
/// `roots`, and report spec-anchored findings against the spec's path.
template <typename Driver, typename Spec>
Report run_spec_family(const Invocation& run, const std::string& spec_path,
                       bool (*parse)(const std::string&, Spec&,
                                     std::string&)) {
  Spec spec;
  std::string error;
  if (!parse(read_file(run.root / spec_path), spec, error)) {
    throw ConfigError("bad spec " + spec_path + ": " + error);
  }
  const std::vector<std::string> roots = spec.roots;
  Driver driver(std::move(spec), spec_path);
  driver.set_partial(!run.files.empty());
  add_files(driver, run, roots);
  return to_report(driver.run());
}

struct Family {
  const char* name;
  const std::vector<ts::RuleInfo>& (*rules)();
  Report (*run)(const Invocation&);
};

const Family kFamilies[] = {
    {"lint", lint::rules, run_lint},
    {"protocheck", protocheck::rules,
     [](const Invocation& run) {
       return run_spec_family<protocheck::Driver>(
           run, "tools/protocheck/protocol.toml", protocheck::parse_spec);
     }},
    {"hotcheck", hotcheck::rules,
     [](const Invocation& run) {
       return run_spec_family<hotcheck::Driver>(
           run, "tools/hotcheck/hotpaths.toml", hotcheck::parse_spec);
     }},
    {"racecheck", racecheck::rules,
     [](const Invocation& run) {
       return run_spec_family<racecheck::Driver>(
           run, "tools/racecheck/concurrency.toml", racecheck::parse_spec);
     }},
    {"oraclecheck", oraclecheck::rules,
     [](const Invocation& run) {
       return run_spec_family<oraclecheck::Driver>(
           run, "tools/oraclecheck/oracle.toml", oraclecheck::parse_spec);
     }},
};

int check(int argc, char** argv) {
  Invocation run;
  fs::path sarif_path;
  bool stale_mode = false;
  std::vector<std::string> file_args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw ConfigError(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--root") {
      run.root = value();
    } else if (arg == "--sarif") {
      sarif_path = value();
    } else if (arg == "--stale-suppressions") {
      stale_mode = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--version" || arg == "--list-rules") {
      std::vector<ts::RuleInfo> rules;
      for (const Family& family : kFamilies) {
        const auto& family_rules = family.rules();
        rules.insert(rules.end(), family_rules.begin(), family_rules.end());
      }
      ts::handle_standard_flag(arg, "reconfnet_check", rules, std::cout);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      throw ConfigError("unknown option " + arg);
    } else {
      file_args.push_back(arg);
    }
  }
  for (const std::string& file : file_args) {
    const fs::path path =
        fs::path(file).is_absolute() ? fs::path(file) : run.root / file;
    if (!fs::exists(path)) throw ConfigError("no such file: " + file);
    run.files.push_back(repo_relative(path, run.root));
  }

  // Run every family before printing anything, so a configuration error in
  // one family exits 2 without a partial report.
  std::vector<Report> reports;
  for (const Family& family : kFamilies) reports.push_back(family.run(run));

  std::vector<ts::Finding> all_findings;
  std::vector<ts::Finding> all_suppressed;
  for (std::size_t f = 0; f < reports.size(); ++f) {
    const Report& report = reports[f];
    const char* name = kFamilies[f].name;
    if (stale_mode) {
      for (const ts::StaleSuppression& stale : report.stale) {
        std::cout << stale.file << ":" << stale.line
                  << ": stale suppression allow(" << stale.rule
                  << ") — the rule no longer fires on the line it covers\n";
      }
      std::cerr << name << ": " << report.stale.size()
                << " stale suppressions\n";
      continue;
    }
    for (const ts::Finding& finding : report.findings) {
      std::cout << finding.file << ":" << finding.line << ": " << finding.rule
                << " " << finding.message << "\n";
    }
    std::cerr << name << ": " << report.summary << "\n";
    all_findings.insert(all_findings.end(), report.findings.begin(),
                        report.findings.end());
    all_suppressed.insert(all_suppressed.end(),
                          report.suppressed_findings.begin(),
                          report.suppressed_findings.end());
  }
  if (stale_mode) return 0;

  if (!sarif_path.empty()) {
    std::ofstream sarif(sarif_path, std::ios::binary);
    if (!sarif) throw ConfigError("cannot write " + sarif_path.string());
    ts::write_sarif(sarif, "reconfnet_check", "docs/RULES.md", all_findings,
                    all_suppressed);
  }
  return all_findings.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return check(argc, argv);
  } catch (const ConfigError& error) {
    std::cerr << "reconfnet_check: " << error.what() << "\n";
    return 2;
  }
}
