/**
 * @file
 * Full-topology simulation speed: the paper's real machine — the
 * 144-core zEC12 (4 MCMs x 6 chips x 6 cores) — plus a 1024-CPU
 * stretch point, each running per-CPU private-region transactions
 * to completion. Every record in BENCH_scale.json carries the host
 * wall-clock seconds of the run and its sim-MIPS (simulated
 * instructions per host second); meta.host_cpus records the host.
 *
 * --smoke runs only a reduced 144-core point (tiny iteration count)
 * so CI can exercise the full topology under a wall-time budget.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_util.hh"
#include "json_report.hh"

namespace {

using namespace ztx;

struct RunResult
{
    double hostSeconds = 0.0;
    Cycles simCycles = 0;
    std::uint64_t instructions = 0;
};

RunResult
runOnce(const mem::Topology &topo, unsigned iterations)
{
    // L3/L4 trimmed exactly like bench_util's benchMachine(): the
    // workload footprints stay far below either size, and
    // construction stays cheap at hundreds of CPUs.
    sim::MachineConfig cfg = bench::benchMachine();
    cfg.topology = topo;
    cfg.seed = 17;
    sim::Machine m(cfg);

    const std::vector<isa::Program> programs =
        bench::privateTxPrograms(m.numCpus(), iterations);
    for (unsigned i = 0; i < m.numCpus(); ++i)
        m.setProgram(i, &programs[i]);

    const auto t0 = std::chrono::steady_clock::now();
    const Cycles elapsed = m.run();
    const auto t1 = std::chrono::steady_clock::now();

    RunResult res;
    res.hostSeconds = std::chrono::duration<double>(t1 - t0).count();
    res.simCycles = elapsed;
    for (unsigned i = 0; i < m.numCpus(); ++i)
        res.instructions += m.cpu(i).stats().value("instructions");
    return res;
}

bool
hasFlag(int argc, char **argv, const char *flag)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], flag) == 0)
            return true;
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ztx;

    const bool smoke = hasFlag(argc, argv, "--smoke");
    const unsigned host_cpus = unsigned(sysconf(_SC_NPROCESSORS_ONLN));

    bench::JsonReport report("scale", argc, argv);
    report.setMachineConfig(bench::benchMachine());
    report.meta()["iterations"] = bench::benchIterations();
    report.meta()["host_cpus"] = host_cpus;
    report.meta()["smoke"] = smoke;

    const unsigned iterations =
        smoke ? 8u
              : std::getenv("ZTX_BENCH_FAST")
                    ? bench::benchIterations()
                    : 4 * bench::benchIterations();

    struct Point
    {
        const char *name;
        mem::Topology topo;
        unsigned iters;
    };
    std::vector<Point> points = {
        {"zEC12-144", mem::Topology(6, 6, 4), iterations}};
    if (!smoke)
        points.push_back({"stretch-1024", mem::Topology(32, 8, 4),
                          std::max(1u, iterations / 8)});

    std::printf("# Full-topology simulation speed (host_cpus=%u)\n",
                host_cpus);
    std::printf("# %-12s %5s %10s %12s %10s\n", "topology", "cpus",
                "iters", "host_sec", "mips");
    for (const Point &pt : points) {
        const RunResult res = runOnce(pt.topo, pt.iters);
        const double mips =
            res.hostSeconds > 0.0
                ? double(res.instructions) / res.hostSeconds / 1e6
                : 0.0;
        std::printf("  %-12s %5u %10u %12.4f %10.2f\n", pt.name,
                    pt.topo.numCpus(), pt.iters, res.hostSeconds,
                    mips);
        report.addSimWork(res.simCycles, res.instructions);
        if (report.enabled()) {
            Json rec = Json::object();
            rec["section"] = "full-topology";
            rec["topology"] = pt.name;
            rec["total_cpus"] = pt.topo.numCpus();
            rec["iterations"] = pt.iters;
            rec["host_seconds"] = res.hostSeconds;
            rec["sim_cycles"] = std::uint64_t(res.simCycles);
            rec["instructions"] = res.instructions;
            rec["mips"] = mips;
            report.addRecord(std::move(rec));
        }
    }
    return report.write() ? 0 : 1;
}
