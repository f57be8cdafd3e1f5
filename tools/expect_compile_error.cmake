# ctest helper: compiles ${SRC} with ${CXX} to the object ${OBJ}, under
# the optimisation flags ${OPT} and the compile options ${OPTIONS} (both
# ;-lists, e.g. "-O3;-DNDEBUG" and a target's COMPILE_OPTIONS), the
# language standard ${STD} and the include root ${INCLUDE}.  A full
# compile, not -fsyntax-only: some warnings (-Wmaybe-uninitialized) come
# from the optimiser.  With ${EXPECT} set, fails unless the compile fails
# with that diagnostic tag on stderr; with ${EXPECT} empty, fails unless
# the compile succeeds (a control fixture showing the options accept the
# sanctioned spelling).
#   cmake -DCXX=<compiler> -DOPT="-O3" -DOPTIONS="-Wall;-Wconversion"
#         -DSRC=<file> -DOBJ=<file.o> -DSTD=20 -DINCLUDE=<repo root>
#         [-DEXPECT="[-Werror=conversion]"] -P tools/expect_compile_error.cmake
get_filename_component(obj_dir "${OBJ}" DIRECTORY)
file(MAKE_DIRECTORY "${obj_dir}")
execute_process(COMMAND "${CXX}" ${OPT} ${OPTIONS} -std=c++${STD}
                        "-I${INCLUDE}" -c "${SRC}" -o "${OBJ}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 60)
if("${EXPECT}" STREQUAL "")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${SRC} failed to compile with '${OPTIONS}':\n${err}")
  endif()
  return()
endif()
if(rc EQUAL 0)
  message(FATAL_ERROR "${SRC} compiled with '${OPTIONS}'; expected an "
                      "error tagged ${EXPECT}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${SRC} failed to compile with '${OPTIONS}', but "
                      "not with ${EXPECT}:\n${err}")
endif()
