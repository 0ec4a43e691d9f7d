# reconfnet_sim names the reason of each failed epoch after its table, one
# line per epoch, for churn, dos and combined runs alike.
#   - churn: at n = 64 with --c 1, Algorithm 1's multisets are small enough
#     that seed 4's first epoch runs dry. At n = 256 with --c 1.2, seed 2's
#     epoch 10 runs dry; its churn is staged again, so epoch 11 applies the
#     105 joins of epoch 9 and the 50 of epoch 10, and the overlay keeps its
#     256 members.
#   - dos and combined: with 60% of the nodes blocked by a 0-late group-wipe
#     adversary at n = 256, both epochs of seed 1 silence a group. These runs
#     also disconnect and exit 1, so only their failure lines are checked.
#
# Usage:
#   cmake -DSIM=<reconfnet_sim> -P tests/sim_failure_reason_test.cmake
cmake_minimum_required(VERSION 3.19)

# Runs reconfnet_sim with the given arguments into `out`; a nonzero exit is
# an error unless `allow_failure` is set.
function(run_sim out allow_failure)
  execute_process(
    COMMAND "${SIM}" ${ARGN}
    RESULT_VARIABLE status OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  if(NOT allow_failure AND NOT status STREQUAL "0")
    message(FATAL_ERROR "reconfnet_sim ${ARGN}: exit ${status}\n"
                        "${stdout}${stderr}")
  endif()
  set(${out} "${stdout}${stderr}" PARENT_SCOPE)
endfunction()

# Fails unless `text` contains `line` as a line of its own.
function(expect_line text line)
  string(FIND "${text}" "\n${line}\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no line '${line}' in\n${text}")
  endif()
endfunction()

run_sim(out FALSE churn --n 64 --c 1 --epochs 1 --seed 4)
expect_line("${out}" "epoch 0 failed: rapid node sampling ran dry")
expect_line("${out}" "connected throughout, 1/1 epochs retried")

run_sim(out FALSE churn --n 256 --c 1.2 --epochs 12 --seed 2)
expect_line("${out}" "epoch 10 failed: rapid node sampling ran dry")
# Epoch 11's row: epoch, ok, members, joins, leaves.
if(NOT out MATCHES "\n +11 +yes +256 +155 +155 ")
  message(FATAL_ERROR "epoch 11 does not keep 256 members with 155 joins "
                      "and 155 leaves in\n${out}")
endif()

foreach(mode dos combined)
  run_sim(out TRUE ${mode} --n 256 --blocked 0.6 --lateness 0
          --adversary groupwipe --epochs 2 --seed 1)
  expect_line("${out}" "epoch 0 failed: a group was silenced")
  expect_line("${out}" "epoch 1 failed: a group was silenced")
endforeach()
