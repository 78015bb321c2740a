/**
 * @file
 * Shared plumbing for the figure-regenerating benchmark binaries:
 * the paper's CPU-count sweep, the machine configuration, and the
 * throughput normalization (100 ≙ 2 CPUs / 1 variable / pool of 1).
 *
 * Environment knobs:
 *   ZTX_BENCH_ITERS  operations per CPU (default 150)
 *   ZTX_BENCH_FAST   non-empty: coarser CPU sweep for smoke runs
 */

#ifndef ZTX_BENCH_BENCH_UTIL_HH
#define ZTX_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "point_runner.hh"
#include "sim/machine.hh"
#include "workload/update_bench.hh"

namespace ztx::bench {

/** CPU counts on the x axis of figure 5 (a)-(d). */
inline std::vector<unsigned>
cpuPoints()
{
    if (std::getenv("ZTX_BENCH_FAST"))
        return {2, 4, 8, 24, 100};
    return {2, 3, 4, 5, 6, 8, 10, 20, 40, 60, 80, 100};
}

/**
 * Operations per CPU for the sweep benchmarks. ZTX_BENCH_ITERS must
 * be a positive decimal count; anything else (garbage, zero,
 * negative values that strtoul would silently wrap) falls back to
 * the default with a warning (once per process).
 */
inline unsigned
benchIterations()
{
    static const unsigned iters = [] {
        constexpr unsigned default_iters = 150;
        constexpr unsigned long max_iters = 1'000'000'000UL;
        const char *s = std::getenv("ZTX_BENCH_ITERS");
        if (!s || !*s)
            return default_iters;
        char *end = nullptr;
        errno = 0;
        const unsigned long v = std::strtoul(s, &end, 10);
        if (errno != 0 || end == s || *end != '\0' ||
            s[0] == '-' || v == 0 || v > max_iters) {
            std::fprintf(stderr,
                         "ztx-bench: invalid ZTX_BENCH_ITERS="
                         "\"%s\" (want 1..%lu); using default "
                         "%u\n",
                         s, max_iters, default_iters);
            return default_iters;
        }
        return unsigned(v);
    }();
    return iters;
}

/**
 * Machine configuration of the benchmarks: the paper's topology
 * (6 cores/chip, 4 chips per tested MCM node -> the 24-CPU plateau,
 * 5 MCMs) with L3/L4 trimmed from 48 MB/384 MB to 8 MB/32 MB. The
 * workloads' footprints (at most ~2.6 MB for the 10k pool) stay far
 * below either size, so no additional LRU-XIs are introduced while
 * machine construction stays cheap across the many sweep points
 * (see EXPERIMENTS.md).
 */
inline sim::MachineConfig
benchMachine()
{
    sim::MachineConfig cfg;
    cfg.geometry.l3 = {8ULL << 20, 12};
    cfg.geometry.l4 = {32ULL << 20, 24};
    return cfg;
}

/**
 * Per-CPU private-region transactions: CPU i commits @p iterations
 * transactions of 4 read-modify-writes against its own lines at
 * 0x400000 + i * 0x10000. No two CPUs touch a line, so a run
 * measures the simulator's per-step cost.
 */
inline std::vector<isa::Program>
privateTxPrograms(unsigned cpus, unsigned iterations)
{
    std::vector<isa::Program> programs;
    programs.reserve(cpus);
    for (unsigned c = 0; c < cpus; ++c) {
        isa::Assembler as;
        as.la(9, 0, std::int64_t(0x40'0000 + std::uint64_t(c) * 0x1'0000));
        as.lhi(8, std::int64_t(iterations));
        as.label("loop");
        as.tbegin(0xFF);
        as.jnz("skip"); // private lines: aborts are incidental
        for (int i = 0; i < 4; ++i) {
            as.lg(1, 9, std::int64_t(i * 256));
            as.ahi(1, 1);
            as.lr(2, 9);
            if (i != 0)
                as.ahi(2, std::int64_t(i * 256));
            as.stg(1, 2);
        }
        as.tend();
        as.label("skip");
        as.brct(8, "loop");
        as.halt();
        programs.push_back(as.finish());
    }
    return programs;
}

/**
 * runUpdateBench() for every point, on runPoints() with each point
 * weighing its CPU count; results in point order.
 */
inline std::vector<workload::UpdateBenchResult>
runUpdatePoints(const std::vector<workload::UpdateBenchConfig> &points)
{
    std::vector<unsigned> weights;
    for (const workload::UpdateBenchConfig &cfg : points)
        weights.push_back(cfg.cpus);
    return runPoints(weights, [&](std::size_t i) {
        return workload::runUpdateBench(points[i]);
    });
}

/** The paper's normalization constant for throughput plots. */
inline double
normalizationReference()
{
    return workload::referenceThroughput(benchMachine(),
                                         4 * benchIterations());
}

} // namespace ztx::bench

#endif // ZTX_BENCH_BENCH_UTIL_HH
