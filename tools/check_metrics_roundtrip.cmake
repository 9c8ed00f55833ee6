# CTest script: run adsd_cli decompose with the metrics/flight-recorder
# flags and gate the emitted artifact through obs_summary --check.
# FORMAT selects the scenario: prom / json exposition round-trips, "flight"
# for a --postmortem dump forced by an over-tight --budget, or "exception"
# for a run that fails after its solve, whose postmortem must still carry
# the log tail although the run's context unwound before the dump.

if(FORMAT STREQUAL "flight")
  set(OUT postmortem_roundtrip.json)
  # A zero-ish budget expires immediately; anytime solvers stop at the
  # deadline and the flight recorder dumps the ring on the overrun.
  execute_process(
    COMMAND ${CLI} decompose --function erf --n 8 --free 4 --p 4
            --budget 0.000001 --postmortem ${OUT}
    RESULT_VARIABLE cli_rc)
  if(NOT cli_rc EQUAL 0)
    message(FATAL_ERROR "adsd_cli --postmortem run failed (rc ${cli_rc})")
  endif()
elseif(FORMAT STREQUAL "exception")
  set(OUT postmortem_exception.json)
  file(REMOVE ${OUT})
  execute_process(
    COMMAND ${CLI} decompose --function cos --n 8 --p 2 --log-level info
            --log-file postmortem_exception.jsonl --postmortem ${OUT}
            --verilog no_such_dir/x.v
    RESULT_VARIABLE cli_rc)
  if(NOT cli_rc EQUAL 1)
    message(FATAL_ERROR "adsd_cli with an unwritable --verilog exited "
                        "${cli_rc}, expected 1")
  endif()
  file(READ ${OUT} doc)
  string(JSON reason GET "${doc}" reason)
  if(NOT reason STREQUAL "exception")
    message(FATAL_ERROR "postmortem reason is '${reason}', expected "
                        "'exception'")
  endif()
  string(JSON tail ERROR_VARIABLE no_tail GET "${doc}" log_tail)
  if(no_tail OR NOT tail MATCHES "run complete")
    message(FATAL_ERROR "postmortem log_tail lacks the 'run complete' "
                        "record: ${no_tail}")
  endif()
else()
  set(OUT metrics_roundtrip.${FORMAT})
  execute_process(
    COMMAND ${CLI} decompose --function erf --n 8 --free 4 --p 4
            --metrics ${OUT} --metrics-format ${FORMAT}
    RESULT_VARIABLE cli_rc)
  if(NOT cli_rc EQUAL 0)
    message(FATAL_ERROR "adsd_cli --metrics run failed (rc ${cli_rc})")
  endif()
endif()

execute_process(COMMAND ${SUMMARY} ${OUT} --check RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR "obs_summary --check rejected ${OUT}")
endif()
