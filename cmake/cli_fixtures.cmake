# Pins what a command-line checker accepts and rejects: runs every case
# listed in FIXTURE_DIR/cases.txt (`EXPECTED_EXIT ARG...`, file arguments
# relative to that directory) through TOOL and fails when any invocation
# exits with another code. Invoked by the `ph_obs_json_check_fixtures`
# and `ph_bench_compare_fixtures` CTest targets (tests/CMakeLists.txt) as:
#
#   cmake -DTOOL=... -DFIXTURE_DIR=... -P cmake/cli_fixtures.cmake

foreach(var TOOL FIXTURE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_fixtures.cmake: -D${var}=... is required")
  endif()
endforeach()
get_filename_component(tool_name ${TOOL} NAME)

file(STRINGS ${FIXTURE_DIR}/cases.txt lines)
set(cases 0)
set(failures "")
foreach(line IN LISTS lines)
  if(line MATCHES "^[ \t]*(#|$)")
    continue()
  endif()
  separate_arguments(words UNIX_COMMAND "${line}")
  list(POP_FRONT words expected)
  execute_process(COMMAND ${TOOL} ${words}
                  WORKING_DIRECTORY ${FIXTURE_DIR}
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE output ERROR_VARIABLE output)
  math(EXPR cases "${cases} + 1")
  if(NOT result STREQUAL expected)
    string(STRIP "${output}" output)
    string(APPEND failures
      "\n  expected exit ${expected}, got ${result}: ${line}\n    ${output}")
  endif()
endforeach()

if(NOT failures STREQUAL "")
  message(FATAL_ERROR "${tool_name} fixtures failed:${failures}")
endif()
message(STATUS "${tool_name} fixtures OK: ${cases} cases")
