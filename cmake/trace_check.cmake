# Runs bench_trace_scenario twice with the same seed, validates both dumps
# (metrics JSON including the spans/events sections, Chrome trace JSON),
# and byte-compares the two Chrome trace dumps — tracing's determinism
# guarantee, mirroring cmake/chaos_determinism.cmake. Invoked by the
# `ph_trace_check` CTest target (bench/CMakeLists.txt) as:
#
#   cmake -DTRACE_SCENARIO=... -DJSON_CHECK=... -DWORK_DIR=...
#         -P cmake/trace_check.cmake

foreach(var TRACE_SCENARIO JSON_CHECK WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "trace_check.cmake: -D${var}=... is required")
  endif()
endforeach()

include(${CMAKE_CURRENT_LIST_DIR}/run_checked.cmake)

foreach(run a b)
  set(metrics_${run} ${WORK_DIR}/trace_scenario_metrics_${run}.json)
  set(trace_${run} ${WORK_DIR}/trace_scenario_trace_${run}.json)
  file(REMOVE ${metrics_${run}} ${trace_${run}})
  run_checked("bench_trace_scenario(${run})"
    ${CMAKE_COMMAND} -E env
    PH_METRICS_JSON=${metrics_${run}} PH_TRACE_JSON=${trace_${run}}
    PH_TRACE_SEED=11
    ${TRACE_SCENARIO})
endforeach()

# The metrics dump must carry well-formed spans/events sections with the
# operation root, the cross-device server handling span, and the network
# flight spans underneath.
run_checked("ph_obs_json_check(metrics)"
  ${JSON_CHECK} ${metrics_a}
  span:eval.table8.send_message span:community.rpc
  span:community.server.handle span:net.
  counter:obs.trace. counter:net. counter:peerhood.)

# The Chrome trace must be well-formed trace-event JSON with the same
# spans as named events plus the cross-device flow arrows.
run_checked("ph_obs_json_check(chrome)"
  ${JSON_CHECK} --chrome ${trace_a}
  eval.table8.send_message community.rpc community.server.handle causal)

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${trace_a} ${trace_b}
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "tracing is non-deterministic: ${trace_a} and "
                      "${trace_b} differ for the same seed")
endif()

message(STATUS "trace check OK: ${trace_a} == ${trace_b}")
