# ctest helper: runs `${BIN} ${FLAG} --json ${JSON}` and fails unless the
# binary exits 0 and the JSON-lines file holds exactly ${COUNT} records,
# each containing the text ${EXPECT}.
#   cmake -DBIN=<path> -DFLAG="--experiment x" -DJSON=<file> -DCOUNT=N
#         -DEXPECT=text -P tools/expect_json_records.cmake
separate_arguments(args UNIX_COMMAND "${FLAG}")
file(REMOVE "${JSON}")
execute_process(COMMAND "${BIN}" ${args} --json "${JSON}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 120)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${BIN} ${FLAG} exited with '${rc}':\n${err}")
endif()
if(NOT EXISTS "${JSON}")
  message(FATAL_ERROR "${BIN} ${FLAG} wrote no ${JSON}")
endif()
file(STRINGS "${JSON}" records)
list(LENGTH records n)
if(NOT n EQUAL COUNT)
  message(FATAL_ERROR "${JSON} holds ${n} records, expected ${COUNT}")
endif()
foreach(record IN LISTS records)
  string(FIND "${record}" "${EXPECT}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "record lacks ${EXPECT}:\n${record}")
  endif()
endforeach()
