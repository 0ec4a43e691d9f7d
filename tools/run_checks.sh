#!/usr/bin/env bash
# Run reconfnet_check (tools/reconfnet_check.cpp), the repo's static checker:
# lint (determinism, layering, hygiene), protocheck (protocol conformance),
# hotcheck (hot-path allocations and copies), racecheck (concurrency safety)
# and oraclecheck (t-late adversary information flow), all in one run. Exits
# with the checker's status: 0 clean, 1 findings, 2 usage/configuration
# error.
#
# The checker is zero-dependency: with no configured build tree it is
# bootstrap-compiled on the spot with ${CXX:-c++}, so the gate runs
# everywhere, including toolchain-only containers.
#
# Usage:
#   tools/run_checks.sh [build-dir] [args...]
#
#   build-dir  build tree to build and take reconfnet_check from (default:
#              first configured of build/default, build, build/tidy; with
#              none, bootstrap-compiled into build/reconfnet_check-bootstrap).
#              Pass "" to auto-detect when the first argument is a file.
#   args...    passed through to reconfnet_check, which runs from the repo
#              root: --sarif FILE, --stale-suppressions, --list-rules,
#              --version, or file arguments
#
# Environment:
#   CXX  compiler for the bootstrap build (default: c++)
set -euo pipefail

repo_root="$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

build_dir=""
if [[ $# -gt 0 && "$1" != -* ]]; then
  build_dir="$1"
  shift
fi
if [[ -z "${build_dir}" ]]; then
  for candidate in build/default build build/tidy; do
    if [[ -f "${candidate}/CMakeCache.txt" ]]; then
      build_dir="${candidate}"
      break
    fi
  done
fi

bin=""
if [[ -n "${build_dir}" && -f "${build_dir}/CMakeCache.txt" ]]; then
  # A tree configured before reconfnet_check existed has no such target;
  # fall through to the bootstrap compile instead of failing.
  if cmake --build "${build_dir}" --target reconfnet_check -- -j "$(nproc)" \
    > /dev/null 2>&1; then
    bin="${build_dir}/tools/reconfnet_check"
  else
    echo "run_checks: ${build_dir} cannot build reconfnet_check;" \
      "bootstrapping" >&2
  fi
fi

if [[ -z "${bin}" ]]; then
  bin="build/reconfnet_check-bootstrap/reconfnet_check"
  sources=(tools/reconfnet_check.cpp
    tools/{lint,protocheck,hotcheck,racecheck,oraclecheck}/*.cpp)
  if [[ ! -x "${bin}" ||
        -n "$(find "${sources[@]}" tools/*/*.hpp -newer "${bin}")" ]]; then
    echo "run_checks: compiling ${bin}" >&2
    mkdir -p "$(dirname "${bin}")"
    "${CXX:-c++}" -std=c++20 -O1 "${sources[@]}" -o "${bin}"
  fi
fi

exec "${bin}" "$@"
