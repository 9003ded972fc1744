# Runs BIN and compares its stdout byte for byte with the GOLDEN file.
# Fails when BIN exits non-zero or the output differs; on a difference the
# actual output is written to ACTUAL and a unified diff is printed.
#
#   cmake -DBIN=<exe> -DGOLDEN=<expected.txt> -DACTUAL=<out.txt> \
#         -P tests/golden/compare.cmake
#
# To re-bless after an intended output change, run the binary and copy its
# stdout over the golden file (review the diff first).
execute_process(COMMAND "${BIN}" OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  file(WRITE "${ACTUAL}" "${out}")
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN} "
                      "(actual output: ${ACTUAL})")
endif()
