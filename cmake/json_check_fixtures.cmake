# Pins what ph_obs_json_check accepts and rejects: runs every case listed
# in tests/obs/json_check/cases.txt (`EXPECTED_EXIT ARG...`, file
# arguments relative to that directory) and fails when any invocation
# exits with another code. The fixtures cover one malformed file per
# format rule and one unmet requirement per keyword in each mode
# (metrics JSON, --chrome, --expo, --folded), plus one well-formed file
# per mode. Invoked by the `ph_obs_json_check_fixtures` CTest target
# (tests/CMakeLists.txt) as:
#
#   cmake -DJSON_CHECK=... -DFIXTURE_DIR=... -P cmake/json_check_fixtures.cmake

foreach(var JSON_CHECK FIXTURE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "json_check_fixtures.cmake: -D${var}=... is required")
  endif()
endforeach()

file(STRINGS ${FIXTURE_DIR}/cases.txt lines)
set(cases 0)
set(failures "")
foreach(line IN LISTS lines)
  if(line MATCHES "^[ \t]*(#|$)")
    continue()
  endif()
  separate_arguments(words UNIX_COMMAND "${line}")
  list(POP_FRONT words expected)
  execute_process(COMMAND ${JSON_CHECK} ${words}
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
  message(FATAL_ERROR "ph_obs_json_check fixtures failed:${failures}")
endif()
message(STATUS "ph_obs_json_check fixtures OK: ${cases} cases")
