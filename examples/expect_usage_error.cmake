# Runs ${TOOL} with ${ARGS} and requires exit code 2 (a usage error) plus
# ${EXPECT} somewhere on stderr. ARGS is split like a shell command line.
#
#   cmake -DTOOL=path/to/dft_explorer -DARGS=nosuch
#         "-DEXPECT=dft_explorer: unknown circuit 'nosuch'" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${TOOL} ${ARGS}: expected exit code 2, got '${rc}'\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "${TOOL} ${ARGS}: stderr lacks \"${EXPECT}\", got:\n${err}")
endif()
