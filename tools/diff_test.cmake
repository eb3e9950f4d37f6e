# iop-diff smoke test, run as a CTest:
#   * two same-seed captures must diff clean (exit 0); a run with degraded
#     disks must be flagged as a regression (exit 1);
#   * the committed engine bench baseline diffs clean against itself; a
#     copy with every ns_per_op x10 is flagged at --threshold-pct 300;
#   * a capture/bench mix and a NaN threshold are usage errors (exit 2).
# Inputs: -DSTATS=... -DDIFF=... -DBENCH_BASELINE=... -DWORKDIR=...
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

file(MAKE_DIRECTORY ${WORKDIR})

set(base --app madbench2 --np 4 --kpix 16 --config A)
run_step(${STATS} ${base} --capture-out base.cap)
run_step(${STATS} ${base} --capture-out same.cap)

execute_process(COMMAND ${DIFF} base.cap same.cap
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "same-seed captures reported regressions (${rc}):\n"
                      "${out}\n${err}")
endif()
string(FIND "${out}" "0 regression(s)" found)
if(found EQUAL -1)
  message(FATAL_ERROR "same-seed diff output unexpected:\n${out}")
endif()

run_step(${STATS} ${base} --degrade-disks 4 --capture-out slow.cap)

execute_process(COMMAND ${DIFF} base.cap slow.cap
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "degraded run was not flagged:\n${out}")
endif()
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "iop-diff failed rather than flagged (${rc}):\n"
                      "${out}\n${err}")
endif()
string(FIND "${out}" "REGRESSION" found)
if(found EQUAL -1)
  message(FATAL_ERROR "degraded diff output missing REGRESSION:\n${out}")
endif()

# Runs iop-diff and fails unless it exits with `expected`; leaves the
# output in DIFF_OUTPUT.
function(expect_diff expected)
  execute_process(COMMAND ${DIFF} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR "iop-diff ${ARGN} exited ${rc}, expected "
                        "${expected}:\n${out}\n${err}")
  endif()
  set(DIFF_OUTPUT "${out}" PARENT_SCOPE)
endfunction()

# --- bench JSON --------------------------------------------------------
expect_diff(0 ${BENCH_BASELINE} ${BENCH_BASELINE})
string(FIND "${DIFF_OUTPUT}" "0 regression(s)" found)
if(found EQUAL -1)
  message(FATAL_ERROR "bench self-diff output unexpected:\n${DIFF_OUTPUT}")
endif()

# Every ns_per_op x10, by bumping the decimal exponent of its text.
file(READ ${BENCH_BASELINE} doc)
string(JSON count LENGTH "${doc}" results)
math(EXPR last "${count} - 1")
foreach(i RANGE ${last})
  string(JSON ns GET "${doc}" results ${i} ns_per_op)
  if(ns MATCHES "^(.*)[eE]([-+]?[0-9]+)$")
    math(EXPR exponent "${CMAKE_MATCH_2} + 1")
    set(ns "${CMAKE_MATCH_1}e${exponent}")
  else()
    set(ns "${ns}e1")
  endif()
  string(JSON doc SET "${doc}" results ${i} ns_per_op "${ns}")
endforeach()
file(WRITE ${WORKDIR}/engine_x10.json "${doc}")

expect_diff(1 ${BENCH_BASELINE} engine_x10.json --threshold-pct 300)
if(NOT DIFF_OUTPUT MATCHES "REGRESSION  BM_Engine[^\n]* ns/op")
  message(FATAL_ERROR "x10 bench diff names no BM_Engine regression:\n"
                      "${DIFF_OUTPUT}")
endif()

# --- usage errors --------------------------------------------------------
expect_diff(2 base.cap ${BENCH_BASELINE})
expect_diff(2 ${BENCH_BASELINE} base.cap)
expect_diff(2 base.cap slow.cap --threshold-pct nan)
expect_diff(2 ${BENCH_BASELINE} engine_x10.json --threshold-pct nan)

message(STATUS "diff smoke test passed")
