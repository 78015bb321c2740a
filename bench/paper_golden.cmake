# Golden gate over the paper-evaluation binaries. Runs each at a
# fixed reduced size (ZTX_BENCH_FAST=1, ZTX_BENCH_ITERS=5) with JSON
# reporting on, validates every report with json_check, and compares
# two SHA-256 digests per binary against paper_golden_digests.cmake:
#   stdout  the printed tables, byte for byte;
#   report  the report's meta, records and sim_speed.{sim_cycles,
#           instructions}: everything except host time.
# Invoked by the paper_golden ctest target:
#   cmake -DBENCH_DIR=... -DCHECK_BIN=... -DOUT_DIR=...
#         -DDIGESTS=... -P paper_golden.cmake
# Every run also writes the digests it computed to
# ${OUT_DIR}/paper_golden_digests.cmake; re-blessing copies that file
# over DIGESTS and records the delta in EXPERIMENTS.md.
foreach(var BENCH_DIR CHECK_BIN OUT_DIR DIGESTS)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "paper_golden.cmake: ${var} not set")
    endif()
endforeach()

set(paper_binaries fig5a fig5b fig5c fig5d fig5e fig5f overhead
    queue ablation sensitivity stamp_lite list_set)

include("${DIGESTS}")

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

set(actual "# Paper-bench golden digests (bench/paper_golden.cmake).\n")
set(mismatches "")
foreach(bin IN LISTS paper_binaries)
    set(report_dir "${OUT_DIR}/${bin}")
    file(MAKE_DIRECTORY "${report_dir}")
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env
            ZTX_BENCH_FAST=1 ZTX_BENCH_ITERS=5
            "ZTX_BENCH_JSON=${report_dir}"
            "${BENCH_DIR}/${bin}"
        RESULT_VARIABLE bench_rc
        OUTPUT_VARIABLE bench_out
        ERROR_VARIABLE bench_err)
    if(NOT bench_rc EQUAL 0)
        message(FATAL_ERROR
            "${bin} failed (rc=${bench_rc}):\n${bench_out}\n"
            "${bench_err}")
    endif()

    file(GLOB reports "${report_dir}/*.json")
    list(LENGTH reports n_reports)
    if(NOT n_reports EQUAL 1)
        message(FATAL_ERROR
            "${bin} wrote ${n_reports} JSON reports, want 1")
    endif()
    execute_process(
        COMMAND "${CHECK_BIN}" "${reports}"
        RESULT_VARIABLE check_rc
        OUTPUT_VARIABLE check_out
        ERROR_VARIABLE check_err)
    if(NOT check_rc EQUAL 0)
        message(FATAL_ERROR
            "json_check failed on ${reports} (rc=${check_rc}):\n"
            "${check_out}\n${check_err}")
    endif()

    file(READ "${reports}" doc)
    string(JSON meta GET "${doc}" meta)
    string(JSON records GET "${doc}" records)
    string(JSON sim_cycles GET "${doc}" sim_speed sim_cycles)
    string(JSON instructions GET "${doc}" sim_speed instructions)
    string(SHA256 stdout_hash "${bench_out}")
    string(SHA256 report_hash
        "meta=${meta}\nrecords=${records}\nsim_cycles=${sim_cycles}\ninstructions=${instructions}\n")

    string(APPEND actual
        "set(GOLDEN_${bin}_stdout ${stdout_hash})\n"
        "set(GOLDEN_${bin}_report ${report_hash})\n")
    foreach(part stdout report)
        if(NOT "${${part}_hash}" STREQUAL "${GOLDEN_${bin}_${part}}")
            string(APPEND mismatches
                "  ${bin} ${part}: ${${part}_hash} "
                "(golden ${GOLDEN_${bin}_${part}})\n")
        endif()
    endforeach()
endforeach()

file(WRITE "${OUT_DIR}/paper_golden_digests.cmake" "${actual}")
if(NOT mismatches STREQUAL "")
    message(FATAL_ERROR
        "paper_golden: digests differ from ${DIGESTS}:\n"
        "${mismatches}"
        "Computed digests: ${OUT_DIR}/paper_golden_digests.cmake. "
        "Re-bless only for an intended behaviour change, with the "
        "delta recorded in EXPERIMENTS.md.")
endif()
list(LENGTH paper_binaries n_binaries)
message(STATUS "paper_golden: ${n_binaries} binaries match ${DIGESTS}")
