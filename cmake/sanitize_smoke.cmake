# Builds the sim/net/obs/util/proto/transport/peerhood/sns/community/fault
# unit tests under the `asan-ubsan` preset (build-asan/) and runs the gtest
# binaries directly. This keeps the pooling layers honest in tier-1:
# Arena/BufferPool poison recycled memory, so a use-after-free on a
# recycled block — the bug class manual pooling normally hides — aborts
# here even though the plain build cannot see it. proto_test's fuzz cases
# feed the decoders and the stream reassembler mutated outside bytes, so
# an out-of-bounds read aborts too. peerhood_test (sessions) and sns_test (the SNS server) hold channel
# handles across breaks and closes, and every channel side aliases its
# link's one shared state, so a handle outliving that state aborts here.
# community_test (groups, persistence, the shell over whole stacks) and
# fault_test (the fault model and plane) run the event queue's raw cell
# and block storage under more workloads.
# Invoked by the `ph_sanitize_smoke` CTest target
# (tests/CMakeLists.txt) as:
#
#   cmake -DSOURCE_DIR=... -P cmake/sanitize_smoke.cmake
#
# The first run pays a full sanitizer configure+build; later runs are
# incremental. ./cmake/sanitize.sh remains the full-suite variant.

if(NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "sanitize_smoke.cmake: -DSOURCE_DIR=... is required")
endif()

set(BUILD_DIR ${SOURCE_DIR}/build-asan)
set(SMOKE_TARGETS util_test sim_test sim_alloc_test net_test obs_test
    parallel_test proto_test transport_test peerhood_test sns_test
    community_test fault_test)

include(${CMAKE_CURRENT_LIST_DIR}/run_checked.cmake)

if(NOT EXISTS ${BUILD_DIR}/CMakeCache.txt)
  run_checked("configure(asan-ubsan)"
    ${CMAKE_COMMAND} --preset asan-ubsan -S ${SOURCE_DIR})
endif()

include(ProcessorCount)
ProcessorCount(NPROC)
if(NPROC EQUAL 0)
  set(NPROC 4)
endif()

run_checked("build(asan-ubsan smoke targets)"
  ${CMAKE_COMMAND} --build ${BUILD_DIR} --target ${SMOKE_TARGETS} -j ${NPROC})

# halt_on_error: any sanitizer report fails the binary (and so the test)
# instead of logging and carrying on.
foreach(target ${SMOKE_TARGETS})
  run_checked("${target}(asan-ubsan)"
    ${CMAKE_COMMAND} -E env
    ASAN_OPTIONS=halt_on_error=1:abort_on_error=1:detect_leaks=1
    UBSAN_OPTIONS=halt_on_error=1:abort_on_error=1
    ${BUILD_DIR}/tests/${target})
  message(STATUS "${target}: clean under ASan+UBSan")
endforeach()
