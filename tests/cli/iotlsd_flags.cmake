# Runs iotlsd with malformed and out-of-range numeric flags and checks that
# each is a usage error (exit 2) naming the flag and the value.
#
#   cmake -DIOTLSD=path/to/iotlsd -P iotlsd_flags.cmake

set(cases
  "--port=70000|--port= wants an integer from 0 to 65535, got '70000'"
  "--jobs=-1|--jobs= wants a non-negative integer, got '-1'"
  "--epochs=0|--epochs= wants a positive integer, got '0'"
  "--users=abc|--users= wants a non-negative integer, got 'abc'")

foreach(case IN LISTS cases)
  string(FIND "${case}" "|" bar)
  string(SUBSTRING "${case}" 0 ${bar} flag)
  math(EXPR rest "${bar} + 1")
  string(SUBSTRING "${case}" ${rest} -1 want)
  execute_process(COMMAND "${IOTLSD}" "${flag}"
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${flag}: exit ${code}, want 2\nstderr: ${err}")
  endif()
  if(NOT err STREQUAL "${want}\n")
    message(FATAL_ERROR "${flag}: stderr is\n${err}\nwant\n${want}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${flag}: unexpected stdout\n${out}")
  endif()
endforeach()
