# Runs ${TOOL} in two modes that measure nothing (--benchmark_list_tests and
# a filter matching no benchmark) with FLH_BENCH_OUT pointing at an empty
# directory, and requires that the directory stays empty: a run without
# samples must not overwrite a previous export.
#
#   cmake -DTOOL=path/to/kernel_throughput -DDIR=path/to/empty/dir -P expect_no_export.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
foreach(mode --benchmark_list_tests --benchmark_filter=^NoSuchBenchmark$)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env FLH_BENCH_OUT=${DIR} ${TOOL} ${mode}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "${TOOL} ${mode}: expected exit code 0, got '${rc}'\n${err}")
  endif()
  file(GLOB written "${DIR}/*")
  if(written)
    message(FATAL_ERROR "${TOOL} ${mode} wrote ${written}\n${err}")
  endif()
endforeach()
file(REMOVE_RECURSE "${DIR}")
