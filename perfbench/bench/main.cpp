// The benchmark program: runs one workload in this process and prints its
// metrics, one "name value unit" line each, then one JSON line
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...},
//    "fingerprint": {...}}
// that perfbench/run.py turns into the benchmark's result line. A failed
// output check prints the reason to stderr and exits 2 without a result.
//
//   perfbench --workload churn-4k|live-inproc-512|dht-16k --seed N
//             --seconds S --trace 0|1 [--trace-dir DIR]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "audit/audit.hpp"
#include "measure.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  return options;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void print(const Report& report) {
  for (const auto* list : {&report.metrics, &report.extra}) {
    for (const auto& metric : *list) {
      std::cout << metric.name << ' ' << number(metric.value) << ' '
                << metric.unit << '\n';
    }
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& metric : report.metrics) {
    json += (first ? "" : ", ") + quoted(metric.name) + ": {\"value\": " +
            number(metric.value) + ", \"unit\": " + quoted(metric.unit) + "}";
    first = false;
  }
  json += "}, \"fingerprint\": {";
  first = true;
  for (const auto& [name, value] : report.fingerprint) {
    json += (first ? "" : ", ") + quoted(name) + ": " + quoted(value);
    first = false;
  }
  std::cout << json << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    // Timed runs never pay for the runtime invariant layer, whatever the
    // environment says; the workloads call the checks they need themselves.
    reconfnet::audit::set_enabled(false);
    Report report;
    if (options.workload == "churn-4k") {
      report = perfbench::run_churn(options);
    } else if (options.workload == "live-inproc-512") {
      report = perfbench::run_live(options);
    } else if (options.workload == "dht-16k") {
      report = perfbench::run_dht(options);
    } else {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    }
    print(report);
    return EXIT_SUCCESS;
  } catch (const perfbench::CheckFailed& error) {
    std::cerr << "perfbench: output check failed: " << error.what() << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 1;
  }
}
