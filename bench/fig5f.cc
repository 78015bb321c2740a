/**
 * @file
 * Figure 5(f): statistical abort rate from associativity conflicts
 * for transactions reading n random congruence classes. Without the
 * LRU extension the read footprint is bounded by the L1 (64 rows x
 * 6 ways); with it, by the L2 (512 rows x 8 ways), which pushes the
 * abort wall out by nearly an order of magnitude.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "bench_util.hh"
#include "json_report.hh"
#include "workload/footprint.hh"
#include "workload/report.hh"

namespace {

/** One Monte-Carlo point as a JSON record. */
ztx::Json
footprintRecord(unsigned lines, bool lru_ext,
                const ztx::workload::FootprintResult &res)
{
    ztx::Json rec = ztx::Json::object();
    rec["lines"] = lines;
    rec["variant"] = lru_ext ? "lru-ext" : "no-lru-ext";
    rec["abort_rate"] = res.abortRate;
    rec["trials"] = res.trials;
    rec["aborted_trials"] = res.abortedTrials;
    rec["aborts_by_reason"] =
        ztx::bench::abortBreakdownJson(res.abortsByReason);
    rec["sim_cycles"] = std::uint64_t(res.simCycles);
    rec["instructions"] = res.instructions;
    return rec;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ztx;
    using namespace ztx::workload;

    bench::JsonReport report("fig5f", argc, argv);

    std::printf("# Figure 5(f): effect of LRU extension on the "
                "fetch footprint\n");
    std::printf("# statistical abort rate (%%), n random lines per "
                "transaction\n");

    const bool fast = std::getenv("ZTX_BENCH_FAST") != nullptr;
    const unsigned trials = fast ? 40 : 120;
    report.meta()["trials"] = trials;

    // Serial, not on runPoints(): each point's machine has the
    // full-size 48 MB L3 and 384 MB L4, and this loop already sets
    // the peak RSS of the paper binaries (26 MB at the benchmark
    // size); overlapping its machines would raise it.
    SeriesTable table("Lines", {"NoLruExt-64x6", "LruExt-512x8"});
    for (unsigned lines = 100; lines <= 800; lines += 50) {
        FootprintConfig without;
        without.lruExtension = false;
        without.trials = trials;
        FootprintConfig with;
        with.lruExtension = true;
        with.trials = trials;
        const auto r_without = measureFootprint(lines, without);
        const auto r_with = measureFootprint(lines, with);
        table.addRow(lines, {100.0 * r_without.abortRate,
                             100.0 * r_with.abortRate});
        report.addSimWork(r_without.simCycles,
                          r_without.instructions);
        report.addSimWork(r_with.simCycles, r_with.instructions);
        if (report.enabled()) {
            report.addRecord(
                footprintRecord(lines, false, r_without));
            report.addRecord(footprintRecord(lines, true, r_with));
        }
    }
    table.print(std::cout);
    return report.write() ? 0 : 1;
}
