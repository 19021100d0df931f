# Runs a bench binary with bad flags and checks that each run fails
# cleanly: exit status 2 and exactly one "error: ..." line on stderr, not
# an uncaught exception.
#
#   cmake -DBENCH=path/to/bench_table1_characteristics \
#         -DMISSING_DIR=path/that/does/not/exist -P bench_flag_error.cmake

function(expect_flag_error want)
  execute_process(COMMAND ${BENCH} ${ARGN}
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
expect_flag_error("--csv must name an existing directory"
                  --csv "${MISSING_DIR}")
expect_flag_error("--scale must be in" --scale 5)
