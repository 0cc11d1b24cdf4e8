# Runs ${TOOL} with an unregistered circuit name and requires exit code 2
# plus the "<tool>: unknown circuit 'nosuch'" diagnostic on stderr.
#
#   cmake -DTOOL=path/to/dft_explorer -DNAME=dft_explorer -P expect_unknown_circuit.cmake
execute_process(COMMAND ${TOOL} nosuch
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${NAME} nosuch: expected exit code 2, got '${rc}'\n${err}")
endif()
string(FIND "${err}" "${NAME}: unknown circuit 'nosuch'" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "${NAME} nosuch: missing diagnostic on stderr, got:\n${err}")
endif()
