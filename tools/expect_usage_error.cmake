# ctest helper: runs `${BIN} ${FLAG}` and fails unless the binary exits
# with status ${STATUS} (default 1) and names the rejected flag on
# stderr.  FLAG is the command-line tail, split like a shell would
# (default: --bogus-flag); its first word is the flag that must be named,
# unless ${NAMED} gives the text stderr must name instead.  With
# ${EXPECT} set, stdout or stderr must also contain that text.
#   cmake -DBIN=<path> [-DFLAG="--threads 2"] [-DSTATUS=2] [-DNAMED=text]
#         [-DEXPECT=text] -P tools/expect_usage_error.cmake
if(NOT DEFINED FLAG)
  set(FLAG --bogus-flag)
endif()
if(NOT DEFINED STATUS)
  set(STATUS 1)
endif()
separate_arguments(args UNIX_COMMAND "${FLAG}")
list(GET args 0 flag)
if(DEFINED NAMED)
  set(flag "${NAMED}")
endif()
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc STREQUAL "${STATUS}")
  message(FATAL_ERROR "${BIN} ${FLAG} exited with '${rc}', expected "
                      "${STATUS}\n${err}")
endif()
string(FIND "${err}" "${flag}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BIN} ${FLAG} did not name ${flag}:\n${err}")
endif()
if(DEFINED EXPECT)
  string(FIND "${out}${err}" "${EXPECT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${BIN} ${FLAG} did not print ${EXPECT}:\n${out}${err}")
  endif()
endif()
