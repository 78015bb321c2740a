/**
 * @file
 * The §IV in-text ConcurrentLinkedQueue experiment: the IBM Java
 * team's constrained-transaction queue achieved about 2x the
 * throughput of the lock-based version.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "json_report.hh"
#include "workload/queue.hh"
#include "workload/report.hh"

int
main(int argc, char **argv)
{
    using namespace ztx;
    using namespace ztx::workload;

    bench::JsonReport report("queue_bench", argc, argv);
    report.setMachineConfig(bench::benchMachine());
    report.meta()["iterations"] = 2 * bench::benchIterations();

    std::printf("# ConcurrentLinkedQueue: constrained TX vs lock\n");
    std::printf("# throughput = CPUs / mean cycles per queue op\n");

    const auto record = [&](const QueueBenchResult &res,
                            unsigned cpus, bool constrained) {
        Json rec = Json::object();
        rec["cpus"] = cpus;
        rec["variant"] = constrained ? "tbeginc" : "lock";
        report.addResult(res, std::move(rec));
    };

    SeriesTable table("CPUs", {"Lock", "TBEGINC", "Ratio"});
    for (const unsigned cpus : {2u, 4u, 6u, 8u}) {
        QueueBenchConfig lock_cfg;
        lock_cfg.cpus = cpus;
        lock_cfg.iterations = 2 * bench::benchIterations();
        lock_cfg.useConstrainedTx = false;
        lock_cfg.machine = bench::benchMachine();
        QueueBenchConfig tx_cfg = lock_cfg;
        tx_cfg.useConstrainedTx = true;

        const auto lock_res = runQueueBench(lock_cfg);
        const auto tx_res = runQueueBench(tx_cfg);
        record(lock_res, cpus, false);
        record(tx_res, cpus, true);
        table.addRow(cpus, {1000.0 * lock_res.throughput,
                            1000.0 * tx_res.throughput,
                            tx_res.throughput / lock_res.throughput});
    }
    table.print(std::cout);
    std::printf("# paper reports a factor of about 2 in favor of "
                "constrained transactions\n");
    return report.write() ? 0 : 1;
}
