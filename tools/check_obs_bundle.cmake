# CTest script: one adsd_cli decompose with --obs-dir, then the provenance
# join gate — the bundle must land under exactly one run_id directory, every
# artifact must exist, and each must pass its validator with
# --expect-run-id <run_id> (log_summary for the JSONL stream, trace_summary
# for trace/report/qor, metrics_summary for both metrics expositions and the
# flight dump).

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
endforeach()

foreach(pair
    "${LOG_SUMMARY};log.jsonl"
    "${TRACE_SUMMARY};trace.json"
    "${TRACE_SUMMARY};report.json"
    "${TRACE_SUMMARY};qor.json"
    "${METRICS_SUMMARY};metrics.prom"
    "${METRICS_SUMMARY};metrics.json"
    "${METRICS_SUMMARY};flight.json")
  list(GET pair 0 tool)
  list(GET pair 1 artifact)
  execute_process(
    COMMAND ${tool} ${DIR}/${artifact} --check --expect-run-id ${RID}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "${tool} rejected ${DIR}/${artifact} for run_id ${RID}")
  endif()
endforeach()
