# reconfnet_sim's usage text (tools/reconfnet_sim.cpp) must list every flag
# each subcommand reads. The binary runs with no arguments, which prints the
# usage and exits 1; each subcommand's block is its line in the command list
# plus the indented lines that continue it.
#
# Usage:
#   cmake -DSIM=<reconfnet_sim> -P tests/sim_usage_test.cmake
cmake_minimum_required(VERSION 3.19)

execute_process(COMMAND "${SIM}" RESULT_VARIABLE status OUTPUT_VARIABLE usage
                ERROR_VARIABLE err)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "reconfnet_sim with no arguments: exit ${status}, "
                      "expected 1\n${usage}${err}")
endif()

# expect_listed(<command> <text>...): the command's block holds every text.
function(expect_listed command)
  string(REGEX MATCH "\n  ${command} [^\n]*(\n             [^\n]*)*" block
         "${usage}")
  if(block STREQUAL "")
    message(FATAL_ERROR "usage has no '${command}' block\n${usage}")
  endif()
  string(REGEX MATCHALL "--[a-z-]+" flags "${block}")
  foreach(text IN LISTS ARGN)
    if(text MATCHES "^--[a-z-]+$")
      list(FIND flags "${text}" at)
    else()
      string(FIND "${block}" "${text}" at)
    endif()
    if(at EQUAL -1)
      message(SEND_ERROR "usage of '${command}' does not list '${text}'")
    endif()
  endforeach()
endfunction()

expect_listed(churn --n --epochs --turnover --growth --rate --degree --c
              "--adversary uniform|segment|flood|burst|none")
expect_listed(dos --n --epochs --blocked --lateness --group-c
              --static "--adversary random|isolation|groupwipe|none")
expect_listed(combined --n --epochs --turnover --growth --blocked
              --lateness --group-c
              "--adversary random|isolation|groupwipe|none"
              "default isolation")
expect_listed(sample --n --graph --eps --c --plain)
expect_listed(estimate --n --slots)
