# Overlay-scale acceptance smoke: run bench_overlay_scale on a small crowd
# with the fast path enabled, then validate the metrics dump. Invoked by
# the `ph_overlay_scale_smoke` CTest target (bench/CMakeLists.txt) as:
#
#   cmake -DOVERLAY_SCALE=... -DJSON_CHECK=... -DWORK_DIR=...
#         -P cmake/overlay_scale_smoke.cmake
#
# The dump must carry the per-N scaling record (bench.overlay.*) plus live
# proximity-machinery instruments: spatial queries actually routed through
# the grid, pairs actually pruned, and a position cache that actually hit
# (counter_nonzero catches the "subsystem present but never exercised"
# regression a plain presence check would miss).

foreach(var OVERLAY_SCALE JSON_CHECK WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "overlay_scale_smoke.cmake: -D${var}=... is required")
  endif()
endforeach()

include(${CMAKE_CURRENT_LIST_DIR}/run_checked.cmake)

set(overlay_json ${WORK_DIR}/smoke_overlay_scale_metrics.json)
file(REMOVE ${overlay_json})
run_checked("bench_overlay_scale"
  ${CMAKE_COMMAND} -E env PH_METRICS_JSON=${overlay_json}
  ${OVERLAY_SCALE} --devices=12 --window-min=2 --seed=7)
run_checked("ph_obs_json_check(overlay_scale)"
  ${JSON_CHECK} ${overlay_json}
  counter:bench.overlay.n12.signal_evals
  gauge:bench.overlay.n12.group_events_per_device_min
  gauge:bench.overlay.n12.position_cache_hit_rate
  gauge:bench.overlay.n12.sim_seconds_per_wall_second
  counter_nonzero:net.medium.spatial.queries
  counter_nonzero:net.medium.spatial.rebuilds
  counter_nonzero:net.medium.spatial.pairs_pruned
  counter_nonzero:net.medium.position_cache.hits
  counter_nonzero:net.medium.signal_cache.hits)

message(STATUS "overlay scale smoke OK: ${overlay_json}")
