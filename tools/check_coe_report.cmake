# ctest check: coe_report over three malformed artifacts followed by one
# good trace. Each malformed file must fail on its own with
# "coe_report: <path>: <reason>", the good trace must still be reported,
# and the run must exit 1.
#
#   cmake -DCOE_REPORT=<binary> -DDIR=<fixtures> -P check_coe_report.cmake
set(bad bench_empty_trace.json bench_numeric_name.json
    xray_numeric_diagnostic.json)
set(files)
foreach(f IN LISTS bad)
  list(APPEND files ${DIR}/${f})
endforeach()
execute_process(COMMAND ${COE_REPORT} ${files} ${DIR}/trace_ok.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "coe_report exited '${rc}', want 1\n${out}${err}")
endif()
foreach(f IN LISTS bad)
  string(FIND "${err}" "coe_report: ${DIR}/${f}: json: " at)
  if(at EQUAL -1)
    message(FATAL_ERROR "no error line for ${f}:\n${err}")
  endif()
endforeach()
string(FIND "${out}" "critical path enters via" at)
if(at EQUAL -1)
  message(FATAL_ERROR "the good trace was not reported:\n${out}")
endif()
