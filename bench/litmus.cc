/**
 * @file
 * Litmus corpus runner: exhaustively enumerate every corpus test
 * (src/litmus) and report per-test verdicts plus enumeration
 * statistics (schedules explored, decision depth, distinct
 * outcomes) to BENCH_litmus.json.
 *
 * Every corpus test is expected to enumerate to "ok" on a correct
 * simulator; any "violation" prints the rendered witness schedule
 * (debug/litmus_dump) and any "frontier-capped" means the bounds in
 * EnumOptions no longer cover the corpus — both fail the binary, so
 * it doubles as a CI gate (litmus_smoke runs the reduced subset).
 *
 * Verdicts and the whole JSON record are seed-independent by
 * construction; tests/test_litmus.cc asserts the byte-identity.
 *
 * `--smoke` runs the reduced subset; `--only NAME` runs a single
 * corpus test (used by the EXPERIMENTS.md guard-revert demo).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "debug/litmus_dump.hh"
#include "json_report.hh"
#include "litmus/corpus.hh"
#include "litmus/dsl.hh"
#include "litmus/enumerate.hh"

namespace {

using namespace ztx;

/** The reduced --smoke subset: one representative per family. */
bool
inSmokeSubset(const std::string &name)
{
    return name == "sb" || name == "mp_tx_both" ||
           name == "inc_tx" || name == "inc_ctx" ||
           name == "tabort_rollback" || name == "ntstg_survives" ||
           name == "conflict_directed" || name == "iriw";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    const char *only = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--only") == 0 &&
                 i + 1 < argc)
            only = argv[++i];
    }

    bench::JsonReport report("litmus", argc, argv);
    report.meta()["smoke"] = smoke;

    std::printf("# Litmus corpus: exhaustive interleaving "
                "enumeration%s\n",
                smoke ? " (smoke subset)" : "");
    std::printf("# %-20s %-16s %10s %8s %8s %8s\n", "test",
                "verdict", "schedules", "decis", "depth",
                "outcomes");

    bool all_ok = true;
    unsigned ran = 0;
    for (const litmus::CorpusTest &ct : litmus::corpus()) {
        if (smoke && !inSmokeSubset(ct.name))
            continue;
        if (only && std::strcmp(ct.name, only) != 0)
            continue;
        ++ran;

        const litmus::ParseResult pr = litmus::parse(ct.src);
        if (!pr.ok) {
            std::fprintf(stderr, "litmus: %s: parse error: %s\n",
                         ct.name, pr.error.c_str());
            all_ok = false;
            continue;
        }
        const litmus::Compiled c = litmus::compile(pr.test);
        const litmus::EnumResult res = litmus::enumerate(c);
        report.addSimWork(res.simCycles, res.instructions);

        std::printf("  %-20s %-16s %10llu %8llu %8llu %8llu\n",
                    ct.name, res.verdict.c_str(),
                    (unsigned long long)res.schedulesExplored,
                    (unsigned long long)res.decisionsTotal,
                    (unsigned long long)res.maxDepth,
                    (unsigned long long)res.outcomes.size());

        if (res.verdict != "ok") {
            all_ok = false;
            if (res.witness)
                std::fprintf(
                    stderr, "%s\n",
                    debug::litmusWitnessDump(c, *res.witness)
                        .c_str());
            else
                std::fprintf(stderr,
                             "litmus: %s: verdict %s (%s)\n",
                             ct.name, res.verdict.c_str(),
                             res.capReason.c_str());
        }

        if (report.enabled()) {
            Json rec = Json::object();
            rec["litmus"] = litmus::enumResultJson(c, res);
            report.addRecord(std::move(rec));
        }
    }

    std::printf("# %u tests enumerated\n", ran);
    if (!report.write())
        return 1;
    if (!all_ok) {
        std::fprintf(stderr, "litmus: corpus verdict failure (see "
                             "above)\n");
        return 2;
    }
    return 0;
}
