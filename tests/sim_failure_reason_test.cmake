# reconfnet_sim churn names the reason of each failed epoch after its table:
# at n = 64 with --c 1, Algorithm 1's multisets are small enough that seed 4's
# first epoch runs dry, and the run must say so on its own line.
#
# Usage:
#   cmake -DSIM=<reconfnet_sim> -P tests/sim_failure_reason_test.cmake
cmake_minimum_required(VERSION 3.19)

execute_process(
  COMMAND "${SIM}" churn --n 64 --c 1 --epochs 1 --seed 4
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
  message(FATAL_ERROR "reconfnet_sim churn: exit ${status}\n${out}${err}")
endif()
string(FIND "${out}" "\nepoch 0 failed: rapid node sampling ran dry\n" at)
if(at EQUAL -1)
  message(FATAL_ERROR "no failure line for epoch 0 in\n${out}${err}")
endif()
string(FIND "${out}" "1/1 epochs retried" at)
if(at EQUAL -1)
  message(FATAL_ERROR "epoch 0 was expected to fail; output:\n${out}${err}")
endif()
