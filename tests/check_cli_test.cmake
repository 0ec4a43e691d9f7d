# CLI contract of reconfnet_check (tools/reconfnet_check.cpp), one case per
# CTest (registered in tests/CMakeLists.txt). WILL_FAIL cannot tell exit 1
# (findings) from exit 2 (usage/configuration error), so each case runs the
# binary and checks the exact status:
#
#   finding       a fixture with a known lint finding exits 1
#   unknown_flag  an unknown option exits 2
#   no_specs      a --root holding none of the checker specs exits 2
#   sarif         --sarif over a lint and a protocheck fixture writes one
#                 SARIF 2.1.0 run holding both families' rule ids
#   stale         --stale-suppressions over the tree exits 0
#   tree          the tree gate of one family (-DFAMILY=lint|protocheck|
#                 hotcheck|racecheck|oraclecheck): the run over the tree
#                 exits 0 or 1 and FAMILY's summary line reports 0 findings
#
# Usage:
#   cmake -DCHECK=<reconfnet_check> -DROOT=<repo root> -DWORK=<scratch dir>
#         -DCASE=<case> [-DFAMILY=<family>] -P tests/check_cli_test.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

set(lint_fixture tests/lint_fixtures/rnl201_missing_pragma.hpp)
set(proto_fixture tests/protocheck_fixtures/rnp301_unknown_message.cpp)

function(expect_exit expected)
  execute_process(COMMAND "${CHECK}" ${ARGN}
                  RESULT_VARIABLE status OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status STREQUAL "${expected}")
    message(FATAL_ERROR "reconfnet_check ${ARGN}: exit ${status}, "
                        "expected ${expected}\n${out}${err}")
  endif()
endfunction()

if(CASE STREQUAL "finding")
  expect_exit(1 --root "${ROOT}" ${lint_fixture})
elseif(CASE STREQUAL "unknown_flag")
  expect_exit(2 --root "${ROOT}" --no-such-flag)
elseif(CASE STREQUAL "no_specs")
  file(REMOVE_RECURSE "${WORK}/no_specs")
  file(MAKE_DIRECTORY "${WORK}/no_specs")
  expect_exit(2 --root "${WORK}/no_specs")
elseif(CASE STREQUAL "sarif")
  set(sarif "${WORK}/check_cli.sarif")
  file(REMOVE "${sarif}")
  expect_exit(1 --root "${ROOT}" --sarif "${sarif}"
              ${lint_fixture} ${proto_fixture})
  file(READ "${sarif}" log)
  string(JSON version GET "${log}" version)
  string(JSON runs LENGTH "${log}" runs)
  string(JSON tool GET "${log}" runs 0 tool driver name)
  if(NOT version STREQUAL "2.1.0" OR NOT runs EQUAL 1
     OR NOT tool STREQUAL "reconfnet_check")
    message(FATAL_ERROR "want one SARIF 2.1.0 run by reconfnet_check, got "
                        "version ${version}, ${runs} runs, tool ${tool}")
  endif()
  string(JSON count LENGTH "${log}" runs 0 tool driver rules)
  math(EXPR last "${count} - 1")
  set(ids "")
  foreach(i RANGE ${last})
    string(JSON id GET "${log}" runs 0 tool driver rules ${i} id)
    list(APPEND ids ${id})
  endforeach()
  foreach(want RNL201 RNP301)
    if(NOT want IN_LIST ids)
      message(FATAL_ERROR "SARIF rules lack ${want}: ${ids}")
    endif()
  endforeach()
elseif(CASE STREQUAL "stale")
  expect_exit(0 --root "${ROOT}" --stale-suppressions)
elseif(CASE STREQUAL "tree")
  # Exit 1 may come from another family's findings; exit 2 (bad spec or
  # usage) fails every family's gate.
  execute_process(COMMAND "${CHECK}" --root "${ROOT}"
                  RESULT_VARIABLE status OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status MATCHES "^[01]$"
     OR NOT err MATCHES "(^|\n)${FAMILY}: [^\n]*, 0 findings \\(")
    message(FATAL_ERROR "reconfnet_check --root ${ROOT}: exit ${status}, "
                        "want 0 ${FAMILY} findings\n${out}${err}")
  endif()
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
