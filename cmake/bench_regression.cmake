# Benchmark-trajectory regression gate (ISSUE 5 tentpole). Re-runs the
# report-emitting benches with the exact workloads the committed baselines
# were generated with, then diffs each BENCH_<name>.json candidate against
# bench/baselines/BENCH_<name>.json via ph_bench_compare — headline metrics
# are virtual-time deterministic, so drift beyond the tolerances in
# bench/baselines/tolerances.json is a behaviour change, not noise.
# Finally the gate proves it can actually catch a regression: it perturbs
# one latency headline by +20% and requires the comparison to FAIL.
#
# Invoked by the `ph_bench_regression` CTest target (bench/CMakeLists.txt):
#
#   cmake -DBENCH_COMPARE=... -DMICROBENCH=... -DTABLE8=...
#         -DOVERLAY_SCALE=... -DCHAOS_SOAK=... -DBASELINE_DIR=...
#         -DWORK_DIR=... -P cmake/bench_regression.cmake
#
# To regenerate baselines after an intentional behaviour change, run each
# bench with PH_BENCH_JSON pointed at bench/baselines/BENCH_<name>.json and
# the same workload settings used below (seeds, runs, minutes, args), then
# commit the new files with the change that moved the numbers.

foreach(var BENCH_COMPARE MICROBENCH TABLE8 OVERLAY_SCALE CHAOS_SOAK
            BASELINE_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_regression.cmake: -D${var}=... is required")
  endif()
endforeach()
set(TOLERANCES ${BASELINE_DIR}/tolerances.json)

include(${CMAKE_CURRENT_LIST_DIR}/run_checked.cmake)

# Runs one bench (extra_args after a -- separator) with PH_BENCH_JSON plus
# any KEY=VALUE env settings, then compares against the committed baseline.
function(gate name binary)
  set(env_settings)
  set(extra_args)
  set(in_args FALSE)
  foreach(arg IN LISTS ARGN)
    if(arg STREQUAL "--")
      set(in_args TRUE)
    elseif(in_args)
      list(APPEND extra_args ${arg})
    else()
      list(APPEND env_settings ${arg})
    endif()
  endforeach()

  set(candidate ${WORK_DIR}/BENCH_${name}_candidate.json)
  file(REMOVE ${candidate})
  run_checked("bench(${name})"
    ${CMAKE_COMMAND} -E env PH_BENCH_JSON=${candidate} ${env_settings}
    ${binary} ${extra_args})
  set(baseline ${BASELINE_DIR}/BENCH_${name}.json)
  if(NOT EXISTS ${baseline})
    message(FATAL_ERROR "missing committed baseline ${baseline} — generate "
                        "it per the header of this script and commit it")
  endif()
  run_checked("ph_bench_compare(${name})"
    ${BENCH_COMPARE} ${baseline} ${candidate} ${TOLERANCES})
  message(STATUS "bench trajectory OK: ${name}")
endfunction()

# Workloads must match the committed baselines' `env` exactly —
# ph_bench_compare treats an env mismatch as a setup error.
gate(microbench ${MICROBENCH} -- --benchmark_filter=^$)
gate(table8_sns_comparison ${TABLE8} PH_TABLE8_RUNS=2)
gate(overlay_scale ${OVERLAY_SCALE} -- --devices=5,10 --window-min=2 --seed=1000)
gate(chaos_soak ${CHAOS_SOAK} PH_CHAOS_SEED=7 PH_CHAOS_MINUTES=3 PH_SAMPLE_MS=100)

# --- negative control: the gate must catch a 20% latency regression -------
# Perturb one Table-8 latency headline in the candidate it just passed and
# require the same comparison to fail.
set(good ${WORK_DIR}/BENCH_table8_sns_comparison_candidate.json)
set(perturbed ${WORK_DIR}/BENCH_table8_perturbed.json)
run_checked("ph_bench_compare(--perturb)"
  ${BENCH_COMPARE} --perturb peerhood.total_s 1.2 ${good} ${perturbed})
execute_process(
  COMMAND ${BENCH_COMPARE} ${BASELINE_DIR}/BENCH_table8_sns_comparison.json
          ${perturbed} ${TOLERANCES}
  RESULT_VARIABLE result OUTPUT_VARIABLE output ERROR_VARIABLE output)
if(result EQUAL 0)
  message(FATAL_ERROR "regression gate is blind: a +20% peerhood.total_s "
                      "perturbation passed the comparison:\n${output}")
endif()

message(STATUS "bench regression gate OK (and the +20% perturbation failed "
               "as it must)")
