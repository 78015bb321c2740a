/**
 * @file
 * Figure 5(c): updating 4 variables from a pool of 10 (extreme
 * contention). Expected shape: transactions are competitive at low
 * CPU counts, but beyond that the coarse lock wins — a transaction
 * must own all 4 lines to commit and keeps aborting while it waits,
 * wasting transfers, whereas a lock holder is guaranteed to finish.
 * Under extreme contention constrained transactions (millicode
 * escalation, no fallback) hold up slightly better than TBEGIN.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "json_report.hh"
#include "workload/report.hh"

int
main(int argc, char **argv)
{
    using namespace ztx;
    using namespace ztx::workload;

    bench::JsonReport report("fig5c", argc, argv);
    const double ref = bench::normalizationReference();
    report.setMachineConfig(bench::benchMachine());
    report.meta()["iterations"] = bench::benchIterations();
    report.meta()["normalization_reference"] = ref;

    std::printf("# Figure 5(c): TX vs locks, four variables, "
                "poolsize 10\n");
    std::printf("# normalized throughput (100 = 2 CPUs, 1 var, "
                "pool 1, coarse lock)\n");

    SeriesTable table("CPUs", {"Lock", "TBEGINC", "TBEGIN"});
    for (const unsigned cpus : bench::cpuPoints()) {
        std::vector<double> row;
        for (const SyncMethod method :
             {SyncMethod::CoarseLock, SyncMethod::TBeginc,
              SyncMethod::TBegin}) {
            UpdateBenchConfig cfg;
            cfg.cpus = cpus;
            cfg.poolSize = 10;
            cfg.varsPerOp = 4;
            cfg.method = method;
            cfg.iterations = bench::benchIterations();
            cfg.machine = bench::benchMachine();
            const auto res = runUpdateBench(cfg);
            row.push_back(100.0 * res.throughput / ref);
            report.addSimWork(res.elapsedCycles, res.instructions);
            if (report.enabled()) {
                Json rec = bench::resultJson(res);
                rec["cpus"] = cpus;
                rec["pool"] = 10u;
                rec["vars_per_op"] = 4u;
                rec["variant"] = syncMethodName(method);
                rec["method"] = syncMethodName(method);
                rec["normalized_throughput"] =
                    100.0 * res.throughput / ref;
                rec["xi_rejects"] = res.xiRejects;
                report.addRecord(std::move(rec));
            }
        }
        table.addRow(cpus, row);
    }
    table.print(std::cout);
    return report.write() ? 0 : 1;
}
