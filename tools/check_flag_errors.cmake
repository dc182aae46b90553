# Runs ge_report and ge_dashboard on each malformed flag value and requires
# a clean exit 2 with a one-line message naming the flag, not an abort.
#
#   cmake -DGE_REPORT=path -DGE_DASHBOARD=path -DREPORT_DIR=dir
#         -P check_flag_errors.cmake
#
# REPORT_DIR must be a valid report directory, so a failure to load it can
# never stand in for the flag error.

set(cases
  "ge_report|bins|0"
  "ge_report|bins|abc"
  "ge_report|bins|-1"
  "ge_report|speed-bin|0"
  "ge_report|speed-bin|abc"
  "ge_report|energy-tol|abc"
  "ge_report|energy-tol|0"
  "ge_dashboard|bins|abc"
  "ge_dashboard|bins|0"
  "ge_dashboard|bins|-1"
  "ge_dashboard|gantt-cap|-5"
  "ge_dashboard|gantt-cap|abc"
  "ge_dashboard|speed-bin|abc")

set(failures 0)
foreach(entry IN LISTS cases)
  string(REPLACE "|" ";" parts "${entry}")
  list(GET parts 0 tool)
  list(GET parts 1 flag)
  list(GET parts 2 value)
  if(tool STREQUAL "ge_report")
    set(cmd "${GE_REPORT}" --report "${REPORT_DIR}" --out flag_errors_out)
  else()
    set(cmd "${GE_DASHBOARD}" --report "${REPORT_DIR}" --out flag_errors.html)
  endif()
  execute_process(COMMAND ${cmd} --${flag} ${value}
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT status STREQUAL "2" OR NOT err MATCHES "--${flag} must be")
    message(SEND_ERROR
            "${tool} --${flag} ${value}: exit '${status}', stderr '${err}'")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} malformed flag value(s) not rejected cleanly")
endif()
