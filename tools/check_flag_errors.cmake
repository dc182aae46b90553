# Runs ge_report, ge_dashboard, ge_sweep, a figure binary, abl_replication,
# ge_list_schedulers and the quickstart example on each malformed flag value
# and requires a clean exit 2 with a one-line message naming the flag, not
# an abort, a value wrapped through an unsigned cast or a silently truncated
# number.
#
#   cmake -DGE_REPORT=path -DGE_DASHBOARD=path -DGE_SWEEP=path -DGE_FIG=path
#         -DGE_REPLICATION=path -DGE_QUICKSTART=path -DGE_LIST=path
#         -DREPORT_DIR=dir -P check_flag_errors.cmake
#
# REPORT_DIR must be a valid report directory, so a failure to load it can
# never stand in for the flag error.  A case is "tool|flag|value", plus an
# optional "|extra args" (space-separated) for values that are only wrong
# next to another flag (a list one entry short of --servers).
#
# Every tool above also exits 2 naming a flag it does not know (a
# misspelling); `unknown_cases` lists those, same format.  No tool takes a
# bare argument: `stray_cases` are "tool|args|token", and the tool must exit
# 2 naming `token`, the first bare one in `args` ("--rates 100 150" gives
# 100 to --rates and leaves 150 bare).
#
# `default_cases` are "tool|args|stderr": a config-level range broken by a
# flag the user did not pass names that flag with the value in force.

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
  "ge_dashboard|speed-bin|abc"
  "ge_sweep|servers|-1"
  "ge_sweep|servers|abc"
  "ge_sweep|cores|-2"
  "ge_sweep|cores|abc"
  "ge_sweep|tenants|0"
  "ge_sweep|counter|0"
  "ge_sweep|failure-cores|-1"
  "ge_sweep|monitor-window|-3"
  "ge_sweep|max-jobs|-5"
  "ge_sweep|seed|-1"
  "ge_sweep|jobs|-1"
  "ge_sweep|jobs|abc"
  "ge_sweep|rate|abc"
  "ge_sweep|rates|100,abc"
  "ge_sweep|seconds|abc"
  "ge_sweep|budget|-5"
  "ge_sweep|qge|2"
  "ge_sweep|qge|0.9x"
  "ge_sweep|dispatch|bogus"
  "ge_sweep|quality-family|bogus"
  "ge_sweep|rates|100,-5"
  "ge_sweep|server-cores|2.7"
  "ge_sweep|server-cores|16|--servers 2"
  "ge_sweep|server-power-scale|1,2,3|--servers 2"
  "ge_sweep|tenant-qge|0.9,1.5|--tenants 2"
  "ge_sweep|tenant-qge|0.9|--tenants 2"
  "ge_sweep|schedulers|NOPE"
  "ge_sweep|schedulers|QOA[0.5,0.6]"
  "ge_sweep|schedulers|GE,,BE"
  "ge_sweep|schedulers|QOA[-1]"
  "ge_sweep|trace-format|xml|--trace flag_errors.jsonl"
  "ge_sweep|metric|bogus"
  "ge_sweep|csv|150"
  "ge_sweep|quantum|-1"
  "ge_sweep|burst|-1"
  "ge_sweep|burst-fraction|0.9|--burst 2"
  "ge_sweep|load-window|0"
  "ge_sweep|static-power|-1"
  "ge_sweep|admission|-3"
  "ge_sweep|quality-c|-1"
  "ge_sweep|quality-c|1.5|--quality-family powerlaw"
  "ge_sweep|on-at|2|--off-at 5"
  "ge_sweep|deadline|-5"
  "ge_sweep|deadline-max|100|--deadline 200"
  "ge_sweep|xmax|100|--xmin 500"
  "ge_sweep|alpha|-2"
  "fig|server-cores|16|--servers 2"
  "fig|trace-format|xml|--trace flag_errors.jsonl"
  "fig|rates|100,-5"
  "fig|server-cores|2.7"
  "replication|replicas|0"
  "replication|replicas|-2"
  "replication|replicas|4294967297"
  "quickstart|seed|-1"
  "quickstart|seconds|-1"
  "quickstart|qge|1.5"
  "list|json|stray")

set(unknown_cases
  "ge_sweep|qeg|0.5"
  "ge_sweep|jsn|true"
  "ge_sweep|qeg|0.5|--qge 0.5"
  "ge_report|bin|10"
  "ge_report|dashbaord|x.html"
  "ge_dashboard|gant-cap|5"
  "fig|qeg|0.5"
  "quickstart|qeg|0.5"
  "list|jsn|true")

set(default_cases
  "ge_sweep|--xmin 2000|error: --xmax must be greater than --xmin, got '1000' (default)"
  "ge_sweep|--discrete true --max-ghz 0|error: --step-ghz must be positive and at most --max-ghz, got '0.2' (default)"
  "ge_sweep|--deadline-max 0.1|error: --deadline-max must be at least --deadline, got '0.1'")

set(stray_cases
  "ge_sweep|--rates 100 150|150"
  "ge_sweep|--seconds 0.1 stray|stray"
  "fig|--rates 100 150|150"
  "fig|stray --qeg 0.5|stray"
  "quickstart|--rate 150 200|200"
  "quickstart|stray|stray"
  "list|stray --out x.json|stray")

# The command line every case of `tool` starts from, in `out`.
function(tool_command tool out)
  if(tool STREQUAL "ge_report")
    set(cmd "${GE_REPORT}" --report "${REPORT_DIR}" --out flag_errors_out)
  elseif(tool STREQUAL "ge_dashboard")
    set(cmd "${GE_DASHBOARD}" --report "${REPORT_DIR}" --out flag_errors.html)
  elseif(tool STREQUAL "fig")
    set(cmd "${GE_FIG}" --seconds 0.1 --progress false)
  elseif(tool STREQUAL "replication")
    set(cmd "${GE_REPLICATION}" --seconds 0.1 --rates 100 --progress false)
  elseif(tool STREQUAL "quickstart")
    set(cmd "${GE_QUICKSTART}" --seconds 0.1)
  elseif(tool STREQUAL "list")
    set(cmd "${GE_LIST}" --json true)
  else()
    set(cmd "${GE_SWEEP}" --schedulers GE --seconds 0.1 --progress false)
  endif()
  set(${out} ${cmd} PARENT_SCOPE)
endfunction()

set(failures 0)
foreach(entry IN LISTS cases unknown_cases)
  string(REPLACE "|" ";" parts "${entry}")
  list(GET parts 0 tool)
  list(GET parts 1 flag)
  list(GET parts 2 value)
  set(extra "")
  list(LENGTH parts nparts)
  if(nparts GREATER 3)
    list(GET parts 3 extra_text)
    separate_arguments(extra UNIX_COMMAND "${extra_text}")
  endif()
  tool_command("${tool}" cmd)
  execute_process(COMMAND ${cmd} ${extra} --${flag} ${value}
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  set(expect "--${flag} must be")
  list(FIND unknown_cases "${entry}" unknown)
  if(unknown GREATER -1)
    set(expect "^error: unknown flag --${flag}\n$")
  endif()
  if(NOT status STREQUAL "2" OR NOT err MATCHES "${expect}")
    message(SEND_ERROR
            "${tool} --${flag} ${value}: exit '${status}', stderr '${err}'")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
foreach(entry IN LISTS stray_cases)
  string(REPLACE "|" ";" parts "${entry}")
  list(GET parts 0 tool)
  list(GET parts 1 args_text)
  list(GET parts 2 token)
  separate_arguments(args UNIX_COMMAND "${args_text}")
  tool_command("${tool}" cmd)
  execute_process(COMMAND ${cmd} ${args}
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT status STREQUAL "2" OR
     NOT err STREQUAL "error: unexpected argument '${token}'\n")
    message(SEND_ERROR "${tool} ${args_text}: exit '${status}', stderr '${err}'")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
foreach(entry IN LISTS default_cases)
  string(REPLACE "|" ";" parts "${entry}")
  list(GET parts 0 tool)
  list(GET parts 1 args_text)
  list(GET parts 2 expect)
  separate_arguments(args UNIX_COMMAND "${args_text}")
  tool_command("${tool}" cmd)
  execute_process(COMMAND ${cmd} ${args}
                  RESULT_VARIABLE status
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT status STREQUAL "2" OR NOT err STREQUAL "${expect}\n")
    message(SEND_ERROR "${tool} ${args_text}: exit '${status}', stderr '${err}'")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
# --out as the last token names no file; it must not fall back to stdout.
tool_command(list cmd)
execute_process(COMMAND ${cmd} --out
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "2" OR NOT err MATCHES "--out must be")
  message(SEND_ERROR "list --out: exit '${status}', stderr '${err}'")
  math(EXPR failures "${failures} + 1")
endif()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} malformed argument(s) not rejected cleanly")
endif()
