# Drives the ops-plane acceptance test (`ph_ops_scrape_smoke`): run the
# fork-based smoke binary, which leaves one scrape per ops route in
# WORK_DIR, then lint every scrape with ph_obs_json_check —
#
#   metrics.txt   --expo     live counters must be flowing
#   series.json   (default)  registry snapshot + sampled series rings
#   slo.json      non-empty  series_to_json shape (no metric sections)
#   flight.json   --chrome   Perfetto-loadable trace events
#
#   cmake -DSMOKE=... -DJSON_CHECK=... -DWORK_DIR=...
#         -P cmake/ops_scrape_smoke.cmake

foreach(var SMOKE JSON_CHECK WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "ops_scrape_smoke.cmake: -D${var}=... is required")
  endif()
endforeach()

include(${CMAKE_CURRENT_LIST_DIR}/run_checked.cmake)

set(out_dir ${WORK_DIR}/ops_scrape)
file(REMOVE_RECURSE ${out_dir})
file(MAKE_DIRECTORY ${out_dir})

run_checked("ops_scrape_smoke" ${SMOKE} ${out_dir})

# The exposition must lint clean and show a live transport: discovery
# datagrams flowing, the socket loop instrumented, the common histogram
# families registered.
run_checked("ph_obs_json_check(/metrics)"
  ${JSON_CHECK} --expo ${out_dir}/metrics.txt
  counter_nonzero:transport.datagrams_sent
  counter:transport.channels_
  gauge:transport.socket.loop.wait_stall_us
  histogram:transport.socket.loop.lag_us
  histogram:transport.socket.loop.dispatch_us
  histogram:transport.handshake_us
  histogram:transport.channel_rtt_us)

# /series is a full to_json snapshot: metric sections plus the sampler's
# series rings, which must hold at least one sampled point by scrape time.
run_checked("ph_obs_json_check(/series)"
  ${JSON_CHECK} ${out_dir}/series.json
  counter_nonzero:transport.datagrams_sent
  series:transport.)

# /flight must be a well-formed Chrome trace dump.
run_checked("ph_obs_json_check(/flight)"
  ${JSON_CHECK} --chrome ${out_dir}/flight.json)

# /slo has its own shape (series_to_json): just require it to be present
# and carry the SLO section marker.
file(READ ${out_dir}/slo.json slo_body)
if(NOT slo_body MATCHES "\"series\"")
  message(FATAL_ERROR "/slo scrape has no 'series' section:\n${slo_body}")
endif()

message(STATUS "ops scrape smoke OK: ${out_dir}")
