# iop-trend smoke test, run as a CTest:
#   * an archive of five clean runs passes `iop-trend check` (exit 0);
#   * adding a run with a >= 20% makespan regression makes `check` exit
#     nonzero and name the app, config and metric;
#   * option values that would switch the rule off are usage errors.
# Inputs: -DSTATS=... -DTREND=... -DWORKDIR=...
function(run_step)
  execute_process(COMMAND ${ARGV}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "step failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
  set(STEP_OUTPUT "${out}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

set(base --app btio --np 4 --config A)

# --- clean archive passes check -----------------------------------------
foreach(i RANGE 1 5)
  run_step(${STATS} ${base} --archive trends --archive-label run${i})
endforeach()
run_step(${TREND} check --archive trends)

# --- injected regression fails check, naming the series -----------------
run_step(${STATS} ${base} --degrade-disks 3 --archive trends
         --archive-label bad)
execute_process(COMMAND ${TREND} check --archive trends
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "degraded run was not flagged by trend check:\n${out}")
endif()
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "iop-trend check failed rather than flagged (${rc}):\n"
                      "${out}\n${err}")
endif()
foreach(needle "REGRESSION" "btio" "Configuration A" "makespan")
  string(FIND "${out}" "${needle}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "trend check output missing '${needle}':\n${out}")
  endif()
endforeach()

# --- options that would switch the rule off exit 2, naming the option --
foreach(bad "--mad-threshold;nan" "--rel-floor-pct;-1" "--min-history;-1")
  execute_process(COMMAND ${TREND} check --archive trends ${bad}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  list(GET bad 0 option)
  string(FIND "${err}" "${option}" found)
  if(NOT rc EQUAL 2 OR found EQUAL -1)
    message(FATAL_ERROR "iop-trend check ${bad} exited ${rc}, expected 2 "
                        "naming ${option}:\n${out}\n${err}")
  endif()
endforeach()

# --- HTML report renders ------------------------------------------------
run_step(${TREND} report --archive trends --html trend.html)
file(READ ${WORKDIR}/trend.html html)
string(FIND "${html}" "<svg" found)
if(found EQUAL -1)
  message(FATAL_ERROR "HTML report has no inline SVG sparkline")
endif()

message(STATUS "trend smoke test passed")
