# ctest check: validate_bench_json's metric-family schemas. A report with
# one valid key per family (xray.straggler_rank at its -1 floor) passes;
# an unknown key and a negative value in each family fail with exactly
# the messages below, and nothing else; a straggler rank below -1 fails.
#
#   cmake -DVALIDATOR=<binary> -DDIR=<fixtures> -P check_validator.cmake
function(expect_run file want_rc)
  execute_process(COMMAND ${VALIDATOR} ${DIR}/${file}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc STREQUAL "${want_rc}")
    message(FATAL_ERROR "${file}: exit '${rc}', want ${want_rc}\n${out}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

function(expect_failures file)
  expect_run(${file} 1)
  foreach(msg IN LISTS ARGN)
    string(FIND "${out}" "  - ${msg}\n" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${file}: missing \"${msg}\":\n${out}")
    endif()
  endforeach()
  string(REGEX MATCHALL "\n  - " lines "${out}")
  list(LENGTH lines got)
  list(LENGTH ARGN want)
  if(NOT got EQUAL want)
    message(FATAL_ERROR "${file}: ${got} failures, want ${want}:\n${out}")
  endif()
endfunction()

expect_run(bench_metrics_ok.json 0)
expect_failures(bench_metrics_bad.json
  "metrics.counters has unknown mem.* key \"mem.bogus\""
  "mem.faults is negative"
  "metrics.counters has unknown net.* leaf \"net.halo.bogus\""
  "net.halo.messages is negative"
  "metrics.counters has unknown resil.* key \"resil.bogus\""
  "resil.faults is negative"
  "metrics.counters has unknown phoenix.* key \"phoenix.bogus\""
  "phoenix.kills is negative"
  "metrics.gauges has unknown xray.* key \"xray.bogus\""
  "xray.ranks is negative")
expect_failures(bench_metrics_straggler.json
  "xray.straggler_rank is below -1")
