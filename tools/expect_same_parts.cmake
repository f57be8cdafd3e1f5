# ctest helper: one instance reached three ways -- generated in memory
# (--case), read back from its .hgr file and from its ISPD98 .netD/.are
# pair -- must give byte-identical .part files from vpart at --seed
# ${SEED} (default 1).
#   cmake -DMAKE_BENCHMARKS=<path> -DVPART=<path> -DDIR=<work dir>
#         [-DSEED=N] -P tools/expect_same_parts.cmake
if(NOT DEFINED SEED)
  set(SEED 1)
endif()
set(case ibm01)
set(scale 0.3)
file(REMOVE_RECURSE "${DIR}")
execute_process(COMMAND "${MAKE_BENCHMARKS}" --dir "${DIR}" --cases ${case}
                        --scale ${scale} --format both
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "make_benchmarks exited with '${rc}':\n${err}")
endif()
set(sources case hgr ispd98)
set(case_args --case ${case} --scale ${scale})
set(hgr_args --hgr "${DIR}/${case}.hgr")
set(ispd98_args --ispd98 "${DIR}/${case}")
foreach(source IN LISTS sources)
  execute_process(COMMAND "${VPART}" ${${source}_args} --engine flat
                          --starts 4 --seed ${SEED} --out "${DIR}/${source}.part"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err
                  TIMEOUT 60)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "vpart ${${source}_args} exited with '${rc}':\n${err}")
  endif()
endforeach()
foreach(source IN ITEMS hgr ispd98)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${DIR}/case.part" "${DIR}/${source}.part"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "vpart --${source} wrote a different .part file "
                        "than vpart --case ${case} --scale ${scale}")
  endif()
endforeach()
