# CTest script: one adsd_cli decompose with --obs-dir, then the provenance
# join gate — the bundle must land under exactly one run_id directory, every
# artifact must exist, and each must pass obs_summary --check
# --expect-run-id <run_id>.

set(OBS obs_bundle_test)
file(REMOVE_RECURSE ${OBS})
execute_process(
  COMMAND ${CLI} decompose --function erf --n 8 --free 4 --p 4
          --obs-dir ${OBS}
  RESULT_VARIABLE cli_rc)
if(NOT cli_rc EQUAL 0)
  message(FATAL_ERROR "adsd_cli --obs-dir run failed (rc ${cli_rc})")
endif()

file(GLOB runs RELATIVE ${CMAKE_CURRENT_SOURCE_DIR}/${OBS} ${OBS}/*)
list(LENGTH runs n_runs)
if(NOT n_runs EQUAL 1)
  message(FATAL_ERROR
          "expected exactly one run_id directory under ${OBS}, got: ${runs}")
endif()
list(GET runs 0 RID)
set(DIR ${OBS}/${RID})

foreach(artifact log.jsonl trace.json report.json qor.json metrics.prom
        metrics.json flight.json)
  if(NOT EXISTS ${DIR}/${artifact})
    message(FATAL_ERROR "obs bundle missing ${artifact} under ${DIR}")
  endif()
  execute_process(
    COMMAND ${SUMMARY} ${DIR}/${artifact} --check --expect-run-id ${RID}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "obs_summary rejected ${DIR}/${artifact} for run_id ${RID}")
  endif()
endforeach()
