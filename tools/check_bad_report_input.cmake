# Feeds ge_report --trace and --metrics files that are not well-formed and
# requires each to be refused cleanly: exit status 2 and a one-line message
# naming the file, not an abort.
#
#   cmake -DGE_REPORT=path -DTRACE=good.jsonl -DWORK=dir
#         -P check_bad_report_input.cmake
#
# TRACE must be a valid trace, so a failure to load it can never stand in
# for the --metrics error.  A case is "label|flag|file contents", where flag
# is the input the file is given as; contents <missing> names a file that
# does not exist.

set(meta "{\"ev\": \"meta\", \"task\": 0, \"scheduler\": \"GE\", \"arrival_rate\": 4, \"cores\": 1, \"power_budget_w\": 20, \"power_model\": {\"a\": 5, \"beta\": 2, \"units_per_ghz\": 1000}}")
set(cases
  "not json|trace|not json"
  "truncated object|trace|{\"ev\": \"meta\", \"task\": 0"
  "missing ev field|trace|{\"task\": 0}"
  "unknown event kind|trace|${meta}\n{\"ev\": \"bogus\", \"task\": 0, \"t\": 1}"
  "event before meta|trace|{\"ev\": \"cap\", \"task\": 0, \"t\": 1, \"core\": 0, \"watts\": 1}"
  "bad power model|trace|{\"ev\": \"meta\", \"task\": 0, \"scheduler\": \"GE\", \"arrival_rate\": 4, \"cores\": 1, \"power_budget_w\": 20, \"power_model\": {\"a\": -5, \"beta\": 2, \"units_per_ghz\": 1000}}"
  "metrics not json|metrics|not json"
  "metrics v1 schema|metrics|{\"schema\": \"goodenough-metrics-v1\", \"metrics\": []}"
  "metrics file missing|metrics|<missing>")

set(failures 0)
set(index 0)
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" fields "${case}")
  list(GET fields 0 label)
  list(GET fields 1 flag)
  string(FIND "${case}" "|${flag}|" at)
  string(LENGTH "|${flag}|" skip)
  math(EXPR from "${at} + ${skip}")
  string(SUBSTRING "${case}" ${from} -1 contents)
  set(file "${WORK}/bad_input_${index}.json")
  math(EXPR index "${index} + 1")
  file(REMOVE "${file}")
  if(NOT contents STREQUAL "<missing>")
    file(WRITE "${file}" "${contents}\n")
  endif()
  if(flag STREQUAL "trace")
    set(inputs --trace "${file}")
  else()
    set(inputs --trace "${TRACE}" --metrics "${file}")
  endif()
  execute_process(COMMAND "${GE_REPORT}" ${inputs} --out "${WORK}/bad_input_out"
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(STRIP "${err}" err)
  string(FIND "${err}" "\n" newline)
  string(FIND "${err}" "${file}" names_file)
  if(NOT status EQUAL 2 OR NOT newline EQUAL -1 OR names_file EQUAL -1)
    message(SEND_ERROR "${label}: exit ${status}, stderr: ${err}")
    math(EXPR failures "${failures} + 1")
  else()
    message(STATUS "${label}: ${err}")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} malformed input(s) not refused cleanly")
endif()
