# Checks bench_compare's gate directions on committed baselines:
#   - a baseline against itself is OK (exit 0);
#   - an answer counter halved is a REGRESSION (exit 1): answer counters
#     gate both ways;
#   - a work counter halved is an improvement (exit 0), and doubled is a
#     REGRESSION (exit 1): work counters gate one way.
#
#   cmake -DBENCH_COMPARE=<bench_compare> -DBASELINE_DIR=<bench/baselines>
#         -DWORK_DIR=<scratch dir> -P bench_compare_gate.cmake
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs bench_compare on `bench`'s baseline against a copy with counter
# `name` scaled by num/den (1/1: the baseline itself) and checks the exit.
function(expect_exit bench name num den want)
  set(baseline "${BASELINE_DIR}/BENCH_${bench}.json")
  file(READ "${baseline}" text)
  string(REGEX MATCH "\"${name}\":([0-9]+)" match "${text}")
  if(NOT match OR CMAKE_MATCH_1 EQUAL 0)
    message(FATAL_ERROR "no nonzero counter ${name} in ${baseline}")
  endif()
  math(EXPR scaled "${CMAKE_MATCH_1} * ${num} / ${den}")
  string(REPLACE "${match}" "\"${name}\":${scaled}" text "${text}")
  set(candidate "${WORK_DIR}/${bench}.${name}.json")
  file(WRITE "${candidate}" "${text}")
  execute_process(COMMAND "${BENCH_COMPARE}" "${baseline}" "${candidate}"
                  RESULT_VARIABLE got OUTPUT_VARIABLE out)
  if(NOT got EQUAL want)
    message(FATAL_ERROR "bench_compare ${bench} with ${name} x${num}/${den}: "
                        "exit ${got}, want ${want}\n${out}")
  endif()
endfunction()

expect_exit(fig5_descendants flix.query.results_emitted 1 1 0)
expect_exit(fig5_descendants flix.query.results_emitted 1 2 1)
expect_exit(fig5_descendants flix.query.entries_processed 1 2 1)
expect_exit(connection_test flix.query.point_count 1 2 1)
expect_exit(fig5_descendants flix.query.cursor.pulled 1 2 0)
expect_exit(fig5_descendants flix.query.cursor.pulled 2 1 1)
