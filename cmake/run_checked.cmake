# run_checked(LABEL COMMAND...) runs COMMAND and stops the calling script
# with FATAL_ERROR, naming LABEL and showing the captured stdout+stderr,
# when it exits non-zero. Shared by the `cmake -P` test scripts in this
# directory: include(${CMAKE_CURRENT_LIST_DIR}/run_checked.cmake).

function(run_checked label)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE result
                  OUTPUT_VARIABLE output ERROR_VARIABLE output)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR "${label} failed (exit ${result}):\n${output}")
  endif()
endfunction()
