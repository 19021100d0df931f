# Runs examples with bad numeric flags and checks that each run fails
# cleanly: exit status 1 and exactly one "error: ..." line on stderr, not
# an uncaught exception, a wrapped unsigned value or a negative size.
#
#   cmake -DEXAMPLE=path/to/example_quickstart \
#         -DSCALED=path/to/example_parallel_vs_sequential \
#         -P example_flag_error.cmake

function(expect_flag_error example want)
  execute_process(COMMAND ${example} ${ARGN}
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
expect_flag_error(${EXAMPLE} "--nodes must be in \\[1, [0-9]+\\], got 0"
                  --nodes 0)
expect_flag_error(${EXAMPLE} "--nodes must be in \\[1, [0-9]+\\], got -1"
                  --nodes -1)
# --scale sizes the generated circuit: 0 builds none, and a negative value
# would become a negative gate count.
expect_flag_error(${SCALED} "--scale must be in \\(0, 4\\], got 0" --scale 0)
expect_flag_error(${SCALED} "--scale must be in \\(0, 4\\], got -1"
                  --scale -1)
