/**
 * @file
 * Figure 5(b): single-variable updates from a pool of 10. Expected
 * shape: the coarse lock yields very poor throughput; fine-grained
 * locks are better but stop scaling around 10 CPUs and decline;
 * transactions grow up to ~24 CPUs (the tested MCM node size), hold
 * roughly steady beyond, and beat the locks across the whole range.
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

    bench::JsonReport report("fig5b", argc, argv);
    const double ref = bench::normalizationReference();
    report.setMachineConfig(bench::benchMachine());
    report.meta()["iterations"] = bench::benchIterations();
    report.meta()["normalization_reference"] = ref;

    std::printf("# Figure 5(b): TX vs locks, single variable, "
                "poolsize 10\n");
    std::printf("# normalized throughput (100 = 2 CPUs, 1 var, "
                "pool 1, coarse lock)\n");

    SeriesTable table("CPUs", {"CoarseLock", "FineLock", "TBEGINC",
                               "TBEGIN"});
    for (const unsigned cpus : bench::cpuPoints()) {
        std::vector<double> row;
        for (const SyncMethod method :
             {SyncMethod::CoarseLock, SyncMethod::FineLock,
              SyncMethod::TBeginc, SyncMethod::TBegin}) {
            UpdateBenchConfig cfg;
            cfg.cpus = cpus;
            cfg.poolSize = 10;
            cfg.varsPerOp = 1;
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
                rec["vars_per_op"] = 1u;
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
