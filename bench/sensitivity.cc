/**
 * @file
 * Sensitivity analysis for the calibration constants (EXPERIMENTS.md
 * claims the figure *orderings* are robust to them):
 *
 *  1. Remote-latency scale: shrink/stretch everything beyond the L2
 *     (L3/L4/cross-MCM/memory) by 0.5x/1x/2x and re-run the figure
 *     5(b) comparison at 24 CPUs — transactions must keep beating
 *     both locks at every scale.
 *  2. PPA backoff: disable the PPA delay (zero backoff) versus the
 *     default exponential backoff on the contended TBEGIN workload.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "json_report.hh"
#include "workload/report.hh"

namespace {

using namespace ztx;
using namespace ztx::workload;

sim::MachineConfig
scaledMachine(double scale)
{
    sim::MachineConfig cfg = bench::benchMachine();
    cfg.latency.l3Hit = Cycles(double(cfg.latency.l3Hit) * scale);
    cfg.latency.l4Hit = Cycles(double(cfg.latency.l4Hit) * scale);
    cfg.latency.remoteMcm =
        Cycles(double(cfg.latency.remoteMcm) * scale);
    cfg.latency.memory = Cycles(double(cfg.latency.memory) * scale);
    return cfg;
}

double
throughputAt(bench::JsonReport &report, double scale,
             SyncMethod method, const sim::MachineConfig &machine)
{
    UpdateBenchConfig cfg;
    cfg.method = method;
    cfg.cpus = 24;
    cfg.poolSize = 10;
    cfg.varsPerOp = 1;
    cfg.iterations = bench::benchIterations();
    cfg.machine = machine;
    const auto res = runUpdateBench(cfg);
    Json rec = Json::object();
    rec["section"] = "latency-scale";
    rec["latency_scale"] = scale;
    rec["cpus"] = cfg.cpus;
    rec["variant"] = syncMethodName(method);
    rec["method"] = syncMethodName(method);
    report.addResult(res, std::move(rec));
    return res.throughput;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("sensitivity", argc, argv);
    report.setMachineConfig(bench::benchMachine());
    report.meta()["iterations"] = bench::benchIterations();

    std::printf("# Sensitivity 1: remote-latency scale, figure 5(b) "
                "point at 24 CPUs\n");
    SeriesTable lat("Scale", {"CoarseLock", "FineLock", "TBEGINC",
                              "TxBeatsLocks"});
    for (const double scale : {0.5, 1.0, 2.0}) {
        const auto machine = scaledMachine(scale);
        const double coarse = throughputAt(
            report, scale, SyncMethod::CoarseLock, machine);
        const double fine = throughputAt(
            report, scale, SyncMethod::FineLock, machine);
        const double tbc = throughputAt(
            report, scale, SyncMethod::TBeginc, machine);
        lat.addRow(scale,
                   {1000.0 * coarse, 1000.0 * fine, 1000.0 * tbc,
                    (tbc > coarse && tbc > fine) ? 1.0 : 0.0});
    }
    lat.print(std::cout);
    std::printf("# TxBeatsLocks must be 1 at every scale\n\n");

    std::printf("# Sensitivity 2: PPA backoff on contended TBEGIN "
                "(pool 10, 4 vars)\n");
    SeriesTable ppa("CPUs", {"Backoff", "NoBackoff"});
    for (const unsigned cpus : {8u, 24u, 48u}) {
        UpdateBenchConfig cfg;
        cfg.method = SyncMethod::TBegin;
        cfg.cpus = cpus;
        cfg.poolSize = 10;
        cfg.varsPerOp = 4;
        cfg.iterations = bench::benchIterations();
        cfg.machine = bench::benchMachine();
        const auto backoff_res = runUpdateBench(cfg);
        cfg.machine.tm.ppaBaseDelay = 1;
        cfg.machine.tm.ppaMaxShift = 0;
        const auto nobackoff_res = runUpdateBench(cfg);
        const double with_backoff = backoff_res.throughput;
        const double without = nobackoff_res.throughput;
        ppa.addRow(cpus, {1000.0 * with_backoff, 1000.0 * without});
        for (const bool has_backoff : {true, false}) {
            Json rec = Json::object();
            rec["section"] = "ppa-backoff";
            rec["cpus"] = cpus;
            rec["variant"] = has_backoff ? "backoff" : "no-backoff";
            report.addResult(has_backoff ? backoff_res : nobackoff_res,
                             std::move(rec));
        }
    }
    ppa.print(std::cout);
    std::printf("# random exponential backoff prevents harmonic "
                "repeating aborts (paper SSII.A)\n");
    return report.write() ? 0 : 1;
}
