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
#include <vector>

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

/** The figure 5(b) comparison point at 24 CPUs under @p machine. */
UpdateBenchConfig
latencyPoint(SyncMethod method, const sim::MachineConfig &machine)
{
    UpdateBenchConfig cfg;
    cfg.method = method;
    cfg.cpus = 24;
    cfg.poolSize = 10;
    cfg.varsPerOp = 1;
    cfg.iterations = bench::benchIterations();
    cfg.machine = machine;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::JsonReport report("sensitivity", argc, argv);
    report.setMachineConfig(bench::benchMachine());
    report.meta()["iterations"] = bench::benchIterations();

    // Every point of both sections, in print order: per latency
    // scale the three methods, then per CPU count the PPA backoff on
    // and off.
    const double scales[] = {0.5, 1.0, 2.0};
    const SyncMethod lat_methods[] = {
        SyncMethod::CoarseLock, SyncMethod::FineLock, SyncMethod::TBeginc};
    const unsigned ppa_cpus[] = {8, 24, 48};
    std::vector<UpdateBenchConfig> points;
    for (const double scale : scales) {
        for (const SyncMethod method : lat_methods)
            points.push_back(latencyPoint(method, scaledMachine(scale)));
    }
    for (const unsigned cpus : ppa_cpus) {
        UpdateBenchConfig cfg;
        cfg.method = SyncMethod::TBegin;
        cfg.cpus = cpus;
        cfg.poolSize = 10;
        cfg.varsPerOp = 4;
        cfg.iterations = bench::benchIterations();
        cfg.machine = bench::benchMachine();
        points.push_back(cfg);
        cfg.machine.tm.ppaBaseDelay = 1;
        cfg.machine.tm.ppaMaxShift = 0;
        points.push_back(cfg);
    }
    const auto results = bench::runUpdatePoints(points);

    std::printf("# Sensitivity 1: remote-latency scale, figure 5(b) "
                "point at 24 CPUs\n");
    SeriesTable lat("Scale", {"CoarseLock", "FineLock", "TBEGINC",
                              "TxBeatsLocks"});
    std::size_t i = 0;
    for (const double scale : scales) {
        const double coarse = results[i].throughput;
        const double fine = results[i + 1].throughput;
        const double tbc = results[i + 2].throughput;
        lat.addRow(scale,
                   {1000.0 * coarse, 1000.0 * fine, 1000.0 * tbc,
                    (tbc > coarse && tbc > fine) ? 1.0 : 0.0});
        for (const SyncMethod method : lat_methods) {
            Json rec = Json::object();
            rec["section"] = "latency-scale";
            rec["latency_scale"] = scale;
            rec["cpus"] = points[i].cpus;
            rec["variant"] = syncMethodName(method);
            rec["method"] = syncMethodName(method);
            report.addResult(results[i++], std::move(rec));
        }
    }
    lat.print(std::cout);
    std::printf("# TxBeatsLocks must be 1 at every scale\n\n");

    std::printf("# Sensitivity 2: PPA backoff on contended TBEGIN "
                "(pool 10, 4 vars)\n");
    SeriesTable ppa("CPUs", {"Backoff", "NoBackoff"});
    for (const unsigned cpus : ppa_cpus) {
        ppa.addRow(cpus, {1000.0 * results[i].throughput,
                          1000.0 * results[i + 1].throughput});
        for (const bool has_backoff : {true, false}) {
            Json rec = Json::object();
            rec["section"] = "ppa-backoff";
            rec["cpus"] = cpus;
            rec["variant"] = has_backoff ? "backoff" : "no-backoff";
            report.addResult(results[i++], std::move(rec));
        }
    }
    ppa.print(std::cout);
    std::printf("# random exponential backoff prevents harmonic "
                "repeating aborts (paper SSII.A)\n");
    return report.write() ? 0 : 1;
}
