# ctest helper: compiles ${SRC} with ${CXX}, the compile options
# ${OPTIONS} (a ;-list, e.g. a target's COMPILE_OPTIONS), the language
# standard ${STD} and the include root ${INCLUDE}.  With ${EXPECT} set,
# fails unless the compile fails with that diagnostic tag on stderr;
# with ${EXPECT} empty, fails unless the compile succeeds (a control
# fixture showing the options accept the sanctioned spelling).
#   cmake -DCXX=<compiler> -DOPTIONS="-Wall;-Wconversion" -DSRC=<file>
#         -DSTD=20 -DINCLUDE=<repo root> [-DEXPECT="[-Werror=conversion]"]
#         -P tools/expect_compile_error.cmake
execute_process(COMMAND "${CXX}" ${OPTIONS} -std=c++${STD} "-I${INCLUDE}"
                        -fsyntax-only "${SRC}"
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
