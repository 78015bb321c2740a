# Runs a bench binary with JSON reporting enabled and validates the
# resulting BENCH_<name>.json with the json_check binary. Invoked by
# the chaos, scale and litmus smoke ctest targets:
#   cmake -DBENCH_BIN=... -DCHECK_BIN=... -DOUT_DIR=...
#         -DBENCH_NAME=... [-DBENCH_ARGS=...] -P json_smoke.cmake
# BENCH_ARGS is an optional semicolon-separated argument list
# forwarded to the bench binary (e.g. "--smoke").
foreach(var BENCH_BIN CHECK_BIN OUT_DIR BENCH_NAME)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "json_smoke.cmake: ${var} not set")
    endif()
endforeach()
if(NOT DEFINED BENCH_ARGS)
    set(BENCH_ARGS "")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
        ZTX_BENCH_FAST=1 ZTX_BENCH_ITERS=20
        "ZTX_BENCH_JSON=${OUT_DIR}"
        "${BENCH_BIN}" ${BENCH_ARGS}
    RESULT_VARIABLE bench_rc
    OUTPUT_VARIABLE bench_out
    ERROR_VARIABLE bench_err)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR
        "bench failed (rc=${bench_rc}):\n${bench_out}\n${bench_err}")
endif()

set(json_file "${OUT_DIR}/BENCH_${BENCH_NAME}.json")
if(NOT EXISTS "${json_file}")
    message(FATAL_ERROR "missing JSON report: ${json_file}")
endif()

execute_process(
    COMMAND "${CHECK_BIN}" "${json_file}"
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
        "json_check failed (rc=${check_rc}):\n"
        "${check_out}\n${check_err}")
endif()
message(STATUS "json_smoke: ${json_file} OK")
