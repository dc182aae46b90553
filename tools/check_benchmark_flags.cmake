# The google-benchmark binaries parse their own argv (benchmark_main), not
# util::Flags.  A misspelled --benchmark_* flag must still fail loudly: a
# non-zero exit and google-benchmark's "unrecognized command-line flag"
# line, not a full run that silently ignored the filter.
#
#   cmake -DBENCHES="path;path" -P check_benchmark_flags.cmake

set(failures 0)
foreach(bench IN LISTS BENCHES)
  execute_process(COMMAND "${bench}" --benchmark_filtr=x
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(status STREQUAL "0" OR
     NOT err MATCHES "unrecognized command-line flag: --benchmark_filtr=x")
    message(SEND_ERROR "${bench} --benchmark_filtr=x: exit '${status}', stderr '${err}'")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} benchmark binary(ies) accepted an unknown flag")
endif()
