# Runs bench binaries with bad flags and checks that each run fails
# cleanly: exit status 2 and exactly one "error: ..." line on stderr, not
# an uncaught exception.  Common flags go to bench_table1_characteristics;
# bench-specific ones (--k, --max-nodes) to the benches that own them.
#
#   cmake -DBENCH=path/to/bench_table1_characteristics \
#         -DCOMPLEXITY=path/to/bench_complexity \
#         -DFIGS=path/to/bench_fig456 \
#         -DMISSING_DIR=path/that/does/not/exist -P bench_flag_error.cmake

function(expect_flag_error bench want)
  execute_process(COMMAND ${bench} ${ARGN}
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  list(JOIN ARGN " " flags)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "${flags}: exit status '${status}', want 2\n${err}")
  endif()
  if(NOT err MATCHES "^error: ${want}[^\n]*\n$")
    message(FATAL_ERROR "${flags}: stderr is not one 'error: ${want}...' "
                        "line:\n${err}")
  endif()
endfunction()

if(EXISTS "${MISSING_DIR}")
  message(FATAL_ERROR "${MISSING_DIR} exists; the test needs a missing path")
endif()
expect_flag_error(${BENCH} "--csv must name an existing directory"
                  --csv "${MISSING_DIR}")
expect_flag_error(${BENCH} "--scale must be in" --scale 5)
expect_flag_error(${COMPLEXITY} "--k must be in \\[1, 1024\\], got 0" --k 0)
expect_flag_error(${FIGS} "--max-nodes must be in \\[1, 64\\], got 0"
                  --max-nodes 0)
