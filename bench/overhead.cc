/**
 * @file
 * The in-text §IV claims:
 *  - single CPU, L1-resident data: transactions outperform
 *    lock/unlock by about 30% (shorter path length);
 *  - constrained and non-constrained transactions perform
 *    comparably (paper: 0.4% apart; see EXPERIMENTS.md on the
 *    scalar-model deviation);
 *  - at 100 CPUs on the 10k pool, TBEGINC reaches 99.8% of the
 *    throughput without any locking scheme.
 */

#include <cstdio>

#include "bench_util.hh"
#include "json_report.hh"

int
main(int argc, char **argv)
{
    using namespace ztx;
    using namespace ztx::workload;

    bench::JsonReport report("overhead", argc, argv);
    const unsigned iters = 4 * bench::benchIterations();
    report.setMachineConfig(bench::benchMachine());
    report.meta()["iterations"] = iters;

    const auto run = [&](const char *label, SyncMethod method,
                         unsigned cpus, unsigned pool,
                         unsigned vars) {
        UpdateBenchConfig cfg;
        cfg.method = method;
        cfg.cpus = cpus;
        cfg.poolSize = pool;
        cfg.varsPerOp = vars;
        cfg.iterations = iters;
        cfg.machine = bench::benchMachine();
        const auto res = runUpdateBench(cfg);
        Json rec = Json::object();
        rec["variant"] = label;
        rec["method"] = syncMethodName(method);
        rec["cpus"] = cpus;
        rec["pool"] = pool;
        rec["vars_per_op"] = vars;
        report.addResult(res, std::move(rec));
        return res;
    };

    std::printf("# Single-CPU overhead (pool 1, 1 variable, "
                "L1-resident)\n");
    const auto lock = run("lock-1cpu", SyncMethod::CoarseLock,
                          1, 1, 1);
    const auto tb = run("tbegin-1cpu", SyncMethod::TBegin, 1, 1, 1);
    const auto tbc = run("tbeginc-1cpu", SyncMethod::TBeginc,
                         1, 1, 1);
    std::printf("lock/unlock   : %7.2f cycles/op\n",
                lock.meanRegionCycles);
    std::printf("TBEGIN..TEND  : %7.2f cycles/op\n",
                tb.meanRegionCycles);
    std::printf("TBEGINC..TEND : %7.2f cycles/op\n",
                tbc.meanRegionCycles);
    std::printf("TX advantage over lock    : %+.1f%%  "
                "(paper: ~+30%%)\n",
                100.0 * (tb.throughput / lock.throughput - 1.0));
    std::printf("constrained vs non-constr : %+.1f%%  "
                "(paper: ~0.4%%; see EXPERIMENTS.md)\n",
                100.0 * (tbc.throughput / tb.throughput - 1.0));

    // Serial, not on runPoints(): its two 100-CPU machines on the
    // 10k pool at 4x the iterations already hold 24 MB, next to
    // fig5f's peak of the paper binaries; running them together
    // would raise it.
    std::printf("\n# TBEGINC vs no locking, 100 CPUs, 4 variables, "
                "pool 10k\n");
    const auto none = run("none-100cpu", SyncMethod::None,
                          100, 10000, 4);
    const auto tbc100 = run("tbeginc-100cpu", SyncMethod::TBeginc,
                            100, 10000, 4);
    std::printf("no locking : %9.2f cycles/op\n",
                none.meanRegionCycles);
    std::printf("TBEGINC    : %9.2f cycles/op\n",
                tbc100.meanRegionCycles);
    std::printf("TBEGINC at %.1f%% of unsynchronized throughput "
                "(paper: 99.8%%)\n",
                100.0 * tbc100.throughput / none.throughput);
    return report.write() ? 0 : 1;
}
