/**
 * @file
 * Figure 5(d): reading 4 variables from a pool of 10k — read-write
 * lock versus constrained transactions. Expected shape: the RW lock
 * flattens out because every reader entry/exit updates the
 * read-count word, which ping-pongs between CPUs; transactions only
 * check that no writer is present, so the lock-word line stays
 * shared and throughput grows almost linearly.
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

    bench::JsonReport report("fig5d", argc, argv);
    const double ref = bench::normalizationReference();
    report.setMachineConfig(bench::benchMachine());
    report.meta()["iterations"] = bench::benchIterations();
    report.meta()["normalization_reference"] = ref;

    std::printf("# Figure 5(d): TX vs read-write lock, four "
                "variables read, poolsize 10k\n");
    std::printf("# normalized throughput (100 = 2 CPUs, 1 var, "
                "pool 1, coarse lock)\n");

    SeriesTable table("CPUs", {"RW-Lock", "TBEGINC"});
    for (const unsigned cpus : bench::cpuPoints()) {
        std::vector<double> row;
        for (const SyncMethod method :
             {SyncMethod::RwLock, SyncMethod::TBeginc}) {
            UpdateBenchConfig cfg;
            cfg.cpus = cpus;
            cfg.poolSize = 10000;
            cfg.varsPerOp = 4;
            cfg.readOnly = true;
            cfg.method = method;
            cfg.iterations = bench::benchIterations();
            cfg.machine = bench::benchMachine();
            const auto res = runUpdateBench(cfg);
            row.push_back(100.0 * res.throughput / ref);
            report.addSimWork(res.elapsedCycles, res.instructions);
            if (report.enabled()) {
                Json rec = bench::resultJson(res);
                rec["cpus"] = cpus;
                rec["pool"] = 10000u;
                rec["vars_per_op"] = 4u;
                rec["read_only"] = true;
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
