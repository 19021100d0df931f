# Runs an example with bad integer flags and checks that each run fails
# cleanly: exit status 1 and exactly one "error: ..." line on stderr, not
# an uncaught exception or a wrapped unsigned value.
#
#   cmake -DEXAMPLE=path/to/example_quickstart -P example_flag_error.cmake

function(expect_flag_error want)
  execute_process(COMMAND ${EXAMPLE} ${ARGN}
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  list(JOIN ARGN " " flags)
  if(NOT status EQUAL 1)
    message(FATAL_ERROR "${flags}: exit status '${status}', want 1\n${err}")
  endif()
  if(NOT err MATCHES "^error: ${want}\n$")
    message(FATAL_ERROR "${flags}: stderr is not the one line "
                        "'error: ${want}':\n${err}")
  endif()
endfunction()

# --nodes 0 runs first: a build that lets bad values through aborts on it,
# before -1 could wrap to a request for 2^32 - 1 parts.
expect_flag_error("--nodes must be in \\[1, [0-9]+\\], got 0" --nodes 0)
expect_flag_error("--nodes must be in \\[1, [0-9]+\\], got -1" --nodes -1)
