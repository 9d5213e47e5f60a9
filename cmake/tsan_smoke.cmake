# Builds the parallel kernel/world tests under the `tsan` preset
# (build-tsan/) and runs the gtest binary directly — the tier-1 data-race
# gate for the sharded kernel. The lockstep suites drive real multi-thread
# runs (worker pool, cross-shard mailboxes, barrier hooks), so any missing
# happens-before edge in ShardedKernel or ParallelWorld surfaces here as a
# hard failure even though the plain build passes by luck of scheduling.
# obs_test adds the profiler's cross-thread sampling: WallProfiler's
# sampler thread reads a working thread's span stack while it changes.
# Mirrors cmake/sanitize_smoke.cmake; invoked by the `ph_tsan_smoke` CTest
# target (tests/CMakeLists.txt) as:
#
#   cmake -DSOURCE_DIR=... -P cmake/tsan_smoke.cmake
#
# The first run pays a full TSan configure+build; later runs are
# incremental.

if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "tsan_smoke.cmake: -DSOURCE_DIR=... is required")
endif()

set(BUILD_DIR ${SOURCE_DIR}/build-tsan)
set(SMOKE_TARGETS parallel_test obs_test)

include(${CMAKE_CURRENT_LIST_DIR}/run_checked.cmake)

if(NOT EXISTS ${BUILD_DIR}/CMakeCache.txt)
  run_checked("configure(tsan)"
    ${CMAKE_COMMAND} --preset tsan -S ${SOURCE_DIR})
endif()

include(ProcessorCount)
ProcessorCount(NPROC)
if(NPROC EQUAL 0)
  set(NPROC 4)
endif()

run_checked("build(tsan smoke targets)"
  ${CMAKE_COMMAND} --build ${BUILD_DIR} --target ${SMOKE_TARGETS} -j ${NPROC})

# halt_on_error: the first race report fails the binary (and so the test)
# instead of logging and carrying on.
foreach(target ${SMOKE_TARGETS})
  run_checked("${target}(tsan)"
    ${CMAKE_COMMAND} -E env
    TSAN_OPTIONS=halt_on_error=1:abort_on_error=1
    ${BUILD_DIR}/tests/${target})
  message(STATUS "${target}: clean under TSan")
endforeach()
