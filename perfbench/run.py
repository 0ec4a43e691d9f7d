#!/usr/bin/env python3
"""Runs one workload of the reconfnet performance benchmark.

    python3 perfbench/run.py --workload churn-4k --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the reconfnet library from src/ plus the benchmark
program) in Release mode into $CARGO_TARGET_DIR (default .bench_build), runs
the workload in its own single-threaded process, and prints its metrics,
one "name value unit" line each, then one JSON line:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones
(spans go to $CARGO_TARGET_DIR/spans-<workload>-seed<N>.tsv); a per-layer
metric of a layer the workload does not load reads 0. A failed build or
output check exits non-zero without printing a result. The workloads,
metrics and why they were chosen are described in perfbench/PROVENANCE.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("churn-4k", "live-inproc-512", "dht-16k")
# Time a run may take beyond --seconds: the fixed first units, the reference
# unit of a traced run and the unit that is under way when time runs out.
RUN_SLACK_S = 140


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the benchmark; returns the binary path.

    Configuring every time costs little, and CMake refuses a build directory
    that was configured from another source tree, so a shared
    $CARGO_TARGET_DIR never builds another checkout's sources.
    """
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def listed_metrics(trace):
    """The metrics BENCHMARK.json lists for this mode: {name: unit}."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    listed = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in listed}


def run(binary, workload, seed, seconds, trace):
    """Runs the workload binary; returns (printed lines, parsed JSON)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--trace-dir", build_dir()]
    timeout = seconds + RUN_SLACK_S
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout:g} s")
    if done.returncode != 0:
        fail(f"{workload} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed nothing")
    return lines[:-1], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    lines, result = run(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    metrics = result["metrics"]
    listed = listed_metrics(args.trace)
    if any(listed.get(name) != metric["unit"]
           for name, metric in metrics.items()):
        fail(f"metrics {sorted(metrics)} are not all listed in BENCHMARK.json "
             "with their unit")
    if args.trace:
        # A traced run reports the layers its workload loads; the others did
        # no work.
        metrics = {name: metrics.get(name, {"value": 0, "unit": unit})
                   for name, unit in listed.items()}
    elif sorted(metrics) != sorted(listed):
        fail(f"metrics {sorted(metrics)} differ from BENCHMARK.json's "
             f"{sorted(listed)}")
    if (not result["correct"] or result["failed"] != 0
            or result["attempted"] < 1):
        fail("the run reported failed operations")
    for line in lines:
        print(line)
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
