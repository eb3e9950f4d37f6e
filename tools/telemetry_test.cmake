# iop-sweep telemetry smoke test, run as a CTest:
#   a 4-cell campaign run with the full telemetry stack on (journal,
#   Prometheus snapshots every 50 ms, exec trace) must expose the cell and
#   replay counts in the .prom file, put pid-5 worker tracks in the exec
#   trace, analyze as "run complete" in postmortem, and leave a store
#   byte-identical to a --no-journal run's, the journal aside.
# Inputs: -DSWEEP=... -DWORKDIR=...
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
file(WRITE ${WORKDIR}/tele.campaign
     "name ci-tele-smoke\napp example\nconfig A\nconfig B\n"
     "degrade-disks 1 4\n")

run_step(${SWEEP} run --campaign tele.campaign --store tele-on -j2
         --telemetry-out tele.prom --telemetry-interval-ms 50
         --exec-trace-out tele-trace.json)

# The final snapshot holds the run's last state.
file(READ ${WORKDIR}/tele.prom prom)
foreach(line "iop_sweep_cells_total 4" "iop_sweep_replay_seconds_count 4")
  string(FIND "\n${prom}" "\n${line}\n" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "tele.prom lacks '${line}':\n${prom}")
  endif()
endforeach()

# The exec trace names its worker tracks in the Worker group (pid 5).
file(READ ${WORKDIR}/tele-trace.json trace)
string(REGEX MATCH
       "\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":5,\"tid\":[0-9]+,\"args\":{\"name\":\"worker 0\"}"
       worker ${trace})
if(NOT worker)
  message(FATAL_ERROR "exec trace has no pid-5 'worker 0' track")
endif()

run_step(${SWEEP} postmortem --store tele-on)
string(FIND "${STEP_OUTPUT}" "run complete" found)
if(found EQUAL -1)
  message(FATAL_ERROR "postmortem does not report a complete run:\n"
                      "${STEP_OUTPUT}")
endif()

# Zero perturbation: telemetry off writes the same store bytes.
run_step(${SWEEP} run --campaign tele.campaign --store tele-off -j2
         --no-journal)
if(EXISTS ${WORKDIR}/tele-off/journal)
  message(FATAL_ERROR "--no-journal run wrote a journal")
endif()
file(GLOB_RECURSE on_files RELATIVE ${WORKDIR}/tele-on
     ${WORKDIR}/tele-on/*)
file(GLOB_RECURSE off_files RELATIVE ${WORKDIR}/tele-off
     ${WORKDIR}/tele-off/*)
list(FILTER on_files EXCLUDE REGEX "^journal/")
list(SORT on_files)
list(SORT off_files)
if(NOT on_files STREQUAL off_files)
  message(FATAL_ERROR "store file sets differ:\n${on_files}\nvs\n"
                      "${off_files}")
endif()
foreach(file ${on_files})
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORKDIR}/tele-on/${file} ${WORKDIR}/tele-off/${file}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "store file ${file} differs with telemetry on")
  endif()
endforeach()

message(STATUS "telemetry smoke test passed")
