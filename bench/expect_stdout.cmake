# Runs ${TOOL} and requires exit code 0 and a stdout equal, byte for byte,
# to the file ${GOLDEN}. On a mismatch the output is left in ${ACTUAL} for
# a diff.
#
#   cmake -DTOOL=path/to/driver -DGOLDEN=path/to/golden.txt -DACTUAL=path/to/out.txt
#         -P expect_stdout.cmake
execute_process(COMMAND ${TOOL}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${TOOL}: expected exit code 0, got '${rc}'\n${err}")
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  file(WRITE "${ACTUAL}" "${out}")
  message(FATAL_ERROR "${TOOL}: stdout differs from ${GOLDEN}; it is in ${ACTUAL}")
endif()
