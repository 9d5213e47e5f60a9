# Runs bench_chaos_soak twice with the same seed and a short horizon, then
# byte-compares the two PH_METRICS_JSON dumps — the fault plane's headline
# guarantee (ISSUE 2): identical seed, identical metrics. Then runs the
# sharded-kernel sweep (bench_overlay_scale --devices=none) at --threads=1,
# 2 and 8 and byte-compares metrics, series AND trace dumps across thread
# counts — the parallel kernel's headline guarantee (ISSUE 9): thread count
# must be unobservable in any deterministic artifact. Invoked by the
# `ph_chaos_determinism` CTest target (bench/CMakeLists.txt) as:
#
#   cmake -DCHAOS_SOAK=... -DOVERLAY_SCALE=... -DJSON_CHECK=...
#         -DWORK_DIR=... -P cmake/chaos_determinism.cmake

foreach(var CHAOS_SOAK OVERLAY_SCALE JSON_CHECK WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "chaos_determinism.cmake: -D${var}=... is required")
  endif()
endforeach()

include(${CMAKE_CURRENT_LIST_DIR}/run_checked.cmake)

foreach(run a b)
  set(json_${run} ${WORK_DIR}/chaos_soak_${run}.json)
  set(series_${run} ${WORK_DIR}/chaos_series_${run}.json)
  file(REMOVE ${json_${run}} ${series_${run}})
  run_checked("bench_chaos_soak(${run})"
    ${CMAKE_COMMAND} -E env PH_METRICS_JSON=${json_${run}}
    PH_SERIES_JSON=${series_${run}}
    PH_CHAOS_SEED=7 PH_CHAOS_MINUTES=3 PH_SAMPLE_MS=100
    ${CHAOS_SOAK})
endforeach()

# The dump must be well-formed and actually contain fault windows, the
# layers they disturb, sampled health time-series, at least one SLO
# breach window driven by the injected faults, and the Mode 1 cost
# attribution counters (prof.<center>.events) — which, being inside this
# byte-compared dump, are thereby pinned deterministic.
run_checked("ph_obs_json_check(chaos_soak)"
  ${JSON_CHECK} ${json_a}
  counter:fault. counter:net. counter:peerhood.
  counter_nonzero:prof.net.delivery.events
  counter_nonzero:prof.peerhood. counter_nonzero:prof.obs.sample.events
  histogram:fault.recovery.
  series:peerhood.daemon. series:net.medium.datagrams_lost.rate
  slo_breach:)

foreach(pair "${json_a};${json_b}" "${series_a};${series_b}")
  list(GET pair 0 first)
  list(GET pair 1 second)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${first} ${second}
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    message(FATAL_ERROR "chaos soak is non-deterministic: ${first} and "
                        "${second} differ for the same seed")
  endif()
endforeach()

message(STATUS "chaos determinism OK: metrics and sampled series are "
               "byte-identical across same-seed runs")

# Parallel kernel determinism: one seed, three thread counts, every dump
# byte-identical. --devices=none skips the classic full-stack sweep (whose
# dump carries wall-clock gauges); the artifact of record is the sharded
# world's registry/series/trace.
foreach(threads 1 2 8)
  set(pjson_${threads} ${WORK_DIR}/parallel_metrics_t${threads}.json)
  set(pseries_${threads} ${WORK_DIR}/parallel_series_t${threads}.json)
  set(ptrace_${threads} ${WORK_DIR}/parallel_trace_t${threads}.json)
  file(REMOVE ${pjson_${threads}} ${pseries_${threads}} ${ptrace_${threads}})
  run_checked("bench_overlay_scale(threads=${threads})"
    ${CMAKE_COMMAND} -E env PH_METRICS_JSON=${pjson_${threads}}
    PH_SERIES_JSON=${pseries_${threads}}
    PH_TRACE_JSON=${ptrace_${threads}}
    PH_SAMPLE_MS=100
    ${OVERLAY_SCALE} --devices=none --parallel-devices=256
    --threads=${threads} --shards=8 --window-min=1 --seed=7)
endforeach()

run_checked("ph_obs_json_check(parallel)"
  ${JSON_CHECK} ${pjson_1}
  counter:world.scans counter:world.discoveries counter:world.pings_sent
  counter:sim.shard.0.events counter:sim.shard.7.events
  counter:world.migrations
  counter_nonzero:prof.world.scan.events
  counter_nonzero:prof.world.frame.events
  series:world.)

foreach(threads 2 8)
  foreach(kind pjson pseries ptrace)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${${kind}_1} ${${kind}_${threads}}
                    RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      message(FATAL_ERROR "parallel kernel is non-deterministic: "
                          "${${kind}_1} and ${${kind}_${threads}} differ "
                          "between --threads=1 and --threads=${threads}")
    endif()
  endforeach()
endforeach()

message(STATUS "parallel determinism OK: metrics, series and trace dumps "
               "are byte-identical at --threads=1, 2 and 8")
