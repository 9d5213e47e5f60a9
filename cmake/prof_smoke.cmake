# Drives the profiling acceptance test (`ph_prof_smoke`): run the same
# fork-based smoke binary as ph_ops_scrape_smoke (it scrapes every ops
# route, /profile included, from a live forked daemon), then lint the
# folded profile with ph_obs_json_check --folded —
#
#   profile.folded   --folded   non-empty, well-formed `stack count`
#                               lines; every stack rooted at the "loop"
#                               thread the daemon registered
#
#   cmake -DSMOKE=... -DJSON_CHECK=... -DWORK_DIR=...
#         -P cmake/prof_smoke.cmake

foreach(var SMOKE JSON_CHECK WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "prof_smoke.cmake: -D${var}=... is required")
  endif()
endforeach()

include(${CMAKE_CURRENT_LIST_DIR}/run_checked.cmake)

set(out_dir ${WORK_DIR}/prof_scrape)
file(REMOVE_RECURSE ${out_dir})
file(MAKE_DIRECTORY ${out_dir})

run_checked("prof_smoke" ${SMOKE} ${out_dir})

# The folded scrape must parse (strict `thread[;center...] count` lines),
# hold at least one sample, and attribute everything to the loop thread.
run_checked("ph_obs_json_check(/profile)"
  ${JSON_CHECK} --folded ${out_dir}/profile.folded
  frame: frame:loop)

message(STATUS "prof smoke OK: ${out_dir}/profile.folded")
