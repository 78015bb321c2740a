/**
 * @file
 * Figure 5(a): transactions versus a coarse lock, operations
 * updating 4 random variables, pool sizes 1k and 10k. Expected
 * shape (paper §IV): the coarse lock is poor and roughly flat with
 * steps at chip/MCM boundaries; transactions scale nearly linearly;
 * TBEGIN on the 1k pool flattens/drops at high CPU counts from the
 * rising conflict rate but stays above the lock.
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

    bench::JsonReport report("fig5a", argc, argv);
    const double ref = bench::normalizationReference();
    report.setMachineConfig(bench::benchMachine());
    report.meta()["iterations"] = bench::benchIterations();
    report.meta()["normalization_reference"] = ref;

    std::printf("# Figure 5(a): TX vs locks, four variables, "
                "poolsizes 1k/10k\n");
    std::printf("# normalized throughput (100 = 2 CPUs, 1 var, "
                "pool 1, coarse lock)\n");

    SeriesTable table("CPUs",
                      {"Lock-1k", "TBEGINC-1k", "TBEGIN-1k",
                       "Lock-10k", "TBEGINC-10k", "TBEGIN-10k"});
    for (const unsigned cpus : bench::cpuPoints()) {
        std::vector<double> row;
        for (const unsigned pool : {1000u, 10000u}) {
            for (const SyncMethod method :
                 {SyncMethod::CoarseLock, SyncMethod::TBeginc,
                  SyncMethod::TBegin}) {
                UpdateBenchConfig cfg;
                cfg.cpus = cpus;
                cfg.poolSize = pool;
                cfg.varsPerOp = 4;
                cfg.method = method;
                cfg.iterations = bench::benchIterations();
                cfg.machine = bench::benchMachine();
                const auto res = runUpdateBench(cfg);
                row.push_back(100.0 * res.throughput / ref);
                report.addSimWork(res.elapsedCycles,
                                  res.instructions);
                if (report.enabled()) {
                    Json rec = bench::resultJson(res);
                    rec["cpus"] = cpus;
                    rec["pool"] = pool;
                    rec["vars_per_op"] = 4u;
                    rec["variant"] =
                        std::string(syncMethodName(method)) + "-" +
                        std::to_string(pool);
                    rec["method"] = syncMethodName(method);
                    rec["normalized_throughput"] =
                        100.0 * res.throughput / ref;
                    rec["xi_rejects"] = res.xiRejects;
                    report.addRecord(std::move(rec));
                }
            }
        }
        table.addRow(cpus, row);
    }
    table.print(std::cout);
    return report.write() ? 0 : 1;
}
