# perf_smoke's driver: runs every timing-gate step, also after one fails,
# then exits nonzero naming each step that failed. The perf_smoke target
# (bench/CMakeLists.txt) runs it with `cmake -P` and passes:
#   MICRO, FUZZ_OVERHEAD, SERVE_THROUGHPUT, FARM_SCALING  the bench binaries
#   GUARD     tools/perf_guard.py
#   BASELINE  the committed BENCH_micro.json
#   OUT       the BENCH_micro.json this run writes
set(failed "")
macro(run_step name)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND failed "${name}")
  endif()
endmacro()

run_step("micro" ${MICRO} --benchmark_out=${OUT} --benchmark_out_format=json)
run_step("perf_guard vs committed BENCH_micro.json" python3 ${GUARD} ${OUT} --baseline ${BASELINE})
run_step("perf_guard --micro" python3 ${GUARD} --micro ${OUT})
run_step("fuzz_overhead" ${FUZZ_OVERHEAD})
run_step("serve_throughput" ${SERVE_THROUGHPUT})
run_step("farm_scaling" ${FARM_SCALING})

if(failed)
  list(JOIN failed "; " names)
  message(FATAL_ERROR "perf_smoke failed steps: ${names}")
endif()
message(STATUS "perf_smoke: every step passed")
