# Smoke-runs two metric-dumping benches with tiny workloads and validates
# the JSON each writes. Invoked by the `ph_bench_smoke` CTest target
# (bench/CMakeLists.txt) as:
#
#   cmake -DMICROBENCH=... -DTABLE8=... -DJSON_CHECK=... -DWORK_DIR=...
#         -P cmake/bench_smoke.cmake
#
# Fails (FATAL_ERROR → non-zero exit → test failure) when a bench exits
# non-zero, a dump is missing, or ph_obs_json_check rejects the JSON.

foreach(var MICROBENCH TABLE8 JSON_CHECK WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_smoke.cmake: -D${var}=... is required")
  endif()
endforeach()

include(${CMAKE_CURRENT_LIST_DIR}/run_checked.cmake)

# --- microbench: kernel throughput counters --------------------------------
set(micro_json ${WORK_DIR}/smoke_microbench_metrics.json)
file(REMOVE ${micro_json})
run_checked("bench_microbench"
  ${CMAKE_COMMAND} -E env PH_METRICS_JSON=${micro_json}
  ${MICROBENCH} --benchmark_filter=BM_SimulatorScheduleRun/1000)
run_checked("ph_obs_json_check(microbench)"
  ${JSON_CHECK} ${micro_json} counter:sim.kernel.)

# --- table8: one seed per column, full per-layer registry ------------------
set(table8_json ${WORK_DIR}/smoke_table8_metrics.json)
file(REMOVE ${table8_json})
run_checked("bench_table8_sns_comparison"
  ${CMAKE_COMMAND} -E env PH_METRICS_JSON=${table8_json} PH_TABLE8_RUNS=1
  ${TABLE8})
# The acceptance bar: at least one counter from every layer plus the
# Table 8 operation histograms (p50/p95/p99).
run_checked("ph_obs_json_check(table8)"
  ${JSON_CHECK} ${table8_json}
  counter:net. counter:peerhood. counter:sns. counter:community.
  histogram:eval.table8.)

message(STATUS "bench smoke OK: ${micro_json} ${table8_json}")
