# ctest helper: vpart on ibm01@0.3 with --initial-scheme bfs must write a
# different .part file than with --initial-scheme random, so the flag is
# proven to reach ${ENGINE}.
#   cmake -DVPART=<path> -DENGINE=<name> -DDIR=<work dir>
#         -P tools/expect_scheme_differs.cmake
file(MAKE_DIRECTORY "${DIR}")
foreach(scheme IN ITEMS random bfs)
  set(out "${DIR}/${ENGINE}.${scheme}.part")
  execute_process(COMMAND "${VPART}" --case ibm01 --scale 0.3 --engine ${ENGINE}
                          --starts 4 --initial-scheme ${scheme} --out "${out}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "vpart --engine ${ENGINE} --initial-scheme ${scheme} "
                        "exited with '${rc}':\n${err}")
  endif()
endforeach()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${DIR}/${ENGINE}.random.part" "${DIR}/${ENGINE}.bfs.part"
                RESULT_VARIABLE differ)
if(differ EQUAL 0)
  message(FATAL_ERROR "vpart --engine ${ENGINE} wrote the same .part file "
                      "with --initial-scheme bfs as with random")
endif()
