# ctest helper: runs `${BIN} --bogus-flag` and fails unless the binary
# exits with status 1 and names the bad flag on stderr.
#   cmake -DBIN=<path> -P tools/expect_usage_error.cmake
execute_process(COMMAND "${BIN}" --bogus-flag
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "${BIN} --bogus-flag exited with '${rc}', expected 1\n${err}")
endif()
if(NOT err MATCHES "bogus-flag")
  message(FATAL_ERROR "${BIN} --bogus-flag did not name the flag:\n${err}")
endif()
