/**
 * @file
 * Figure 5(e): lock-elided hash table (the Testarossa JIT
 * experiment). Multiple threads read and write a shared hash table
 * guarded by a single lock; eliding that lock with transactions
 * turns the flat lock curve into near-linear scaling.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "json_report.hh"
#include "workload/hashtable.hh"
#include "workload/report.hh"

int
main(int argc, char **argv)
{
    using namespace ztx;
    using namespace ztx::workload;

    bench::JsonReport report("fig5e", argc, argv);
    report.setMachineConfig(bench::benchMachine());
    report.meta()["iterations"] = 2 * bench::benchIterations();

    std::printf("# Figure 5(e): lock-elided hash table\n");
    std::printf("# throughput normalized to 2 threads with locks\n");

    double lock2 = 0;
    SeriesTable table("Threads", {"Locks", "TBEGIN"});
    for (unsigned threads = 2; threads <= 8; ++threads) {
        std::vector<double> row;
        for (const bool elide : {false, true}) {
            HashTableBenchConfig cfg;
            cfg.cpus = threads;
            cfg.useElision = elide;
            cfg.iterations = 2 * bench::benchIterations();
            cfg.machine = bench::benchMachine();
            const auto res = runHashTableBench(cfg);
            if (!elide && threads == 2)
                lock2 = res.throughput;
            row.push_back(res.throughput);
            Json rec = Json::object();
            rec["cpus"] = threads;
            rec["variant"] = elide ? "tbegin" : "lock";
            rec["occupied_buckets"] = res.occupiedBuckets;
            report.addResult(res, std::move(rec));
        }
        table.addRow(threads,
                     {100.0 * row[0] / lock2, 100.0 * row[1] / lock2});
    }
    table.print(std::cout);
    return report.write() ? 0 : 1;
}
