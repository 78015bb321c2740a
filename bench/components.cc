/**
 * @file
 * google-benchmark micro-benchmarks of the simulator's hot
 * components (host-side costs): cache-array operations, the
 * coherence directory, the gathering store cache, the PRNG, machine
 * construction, a whole simulated transaction round trip, the
 * scheduler's per-step cost on full-topology machines, and the
 * order-inference oracle on a large recorded history.
 */

#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "common/rng.hh"
#include "json_report.hh"
#include "core/store_cache.hh"
#include "inject/order_infer.hh"
#include "isa/assembler.hh"
#include "mem/cache_array.hh"
#include "mem/directory.hh"
#include "mem/main_memory.hh"
#include "sim/machine.hh"
#include "workload/list_set.hh"
#include "workload/op_log.hh"

namespace {

using namespace ztx;

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_CacheArrayLookupHit(benchmark::State &state)
{
    mem::CacheArray l1(mem::CacheGeometry{96 * 1024, 6}, "l1");
    for (unsigned i = 0; i < 64; ++i)
        l1.insert(Addr(i) * lineSizeBytes);
    Addr line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(l1.contains(line));
        line = (line + lineSizeBytes) % (64 * lineSizeBytes);
    }
}
BENCHMARK(BM_CacheArrayLookupHit);

void
BM_CacheArrayInsertEvict(benchmark::State &state)
{
    mem::CacheArray l1(mem::CacheGeometry{96 * 1024, 6}, "l1");
    Addr line = 0;
    for (auto _ : state) {
        if (!l1.contains(line))
            l1.insert(line);
        line += 64 * lineSizeBytes; // same row, forces eviction
    }
}
BENCHMARK(BM_CacheArrayInsertEvict);

void
BM_DirectoryExclusiveHandoff(benchmark::State &state)
{
    mem::CoherenceDirectory dir;
    CpuId cpu = 0;
    for (auto _ : state) {
        dir.setExclusive(0x1000, cpu);
        cpu = (cpu + 1) % 16;
    }
}
BENCHMARK(BM_DirectoryExclusiveHandoff);

void
BM_StoreCacheGather(benchmark::State &state)
{
    mem::MainMemory memory;
    core::GatheringStoreCache sc(64);
    const std::uint8_t bytes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    Addr addr = 0;
    for (auto _ : state) {
        sc.store(addr, bytes, 8, false, memory);
        addr = (addr + 8) % 128;
    }
}
BENCHMARK(BM_StoreCacheGather);

/**
 * One sweep point's machine on the benchmarks' topology, running the
 * first state.range(0) of its 120 CPU slots.
 */
void
BM_MachineConstruct(benchmark::State &state)
{
    sim::MachineConfig cfg = bench::benchMachine();
    cfg.activeCpus = unsigned(state.range(0));
    for (auto _ : state) {
        sim::Machine machine(cfg);
        benchmark::DoNotOptimize(&machine);
    }
}
BENCHMARK(BM_MachineConstruct)
    ->Arg(2)
    ->Arg(24)
    ->Arg(100)
    ->Unit(benchmark::kMicrosecond);

/**
 * fig5f's machine: one CPU on a one-chip topology with the
 * full-size L3 (48 MB) and L4 (384 MB).
 */
void
BM_MachineConstructFig5f(benchmark::State &state)
{
    sim::MachineConfig cfg;
    cfg.topology = mem::Topology(1, 1, 1);
    cfg.activeCpus = 1;
    for (auto _ : state) {
        sim::Machine machine(cfg);
        benchmark::DoNotOptimize(&machine);
    }
}
BENCHMARK(BM_MachineConstructFig5f)->Unit(benchmark::kMicrosecond);

void
BM_SimulatedTransactionRoundTrip(benchmark::State &state)
{
    sim::MachineConfig cfg;
    cfg.topology = mem::Topology(1, 1, 1);
    cfg.activeCpus = 1;
    sim::Machine machine(cfg);

    isa::Assembler as;
    as.la(9, 0, 0x100000);
    as.tbegin(0x00);
    as.jnz("out");
    as.lgfo(1, 9);
    as.ahi(1, 1);
    as.stg(1, 9);
    as.tend();
    as.label("out");
    as.halt();
    const isa::Program p = as.finish();

    for (auto _ : state) {
        machine.setProgram(0, &p);
        machine.run();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedTransactionRoundTrip);

/**
 * The scheduler at scale: host ns per simulated step of bench/scale's
 * private-region machine (zEC12-144, or the 1024-CPU stretch point),
 * each iteration a run of every CPU's transactions to their halt.
 */
void
BM_RunPrivateRegion(benchmark::State &state)
{
    sim::MachineConfig cfg = bench::benchMachine();
    cfg.topology = state.range(0) == 144 ? mem::Topology(6, 6, 4)
                                         : mem::Topology(32, 8, 4);
    sim::Machine machine(cfg);
    const std::vector<isa::Program> programs =
        bench::privateTxPrograms(machine.numCpus(), 4);
    double seconds = 0.0;
    std::uint64_t stepped = 0;
    for (auto _ : state) {
        for (unsigned i = 0; i < machine.numCpus(); ++i)
            machine.setProgram(i, &programs[i]);
        const std::uint64_t before =
            machine.stats().value("scheduler.steps");
        const auto t0 = std::chrono::steady_clock::now();
        machine.run();
        const auto t1 = std::chrono::steady_clock::now();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        state.SetIterationTime(s);
        seconds += s;
        stepped += machine.stats().value("scheduler.steps") - before;
    }
    state.counters["ns_per_step"] =
        stepped ? seconds * 1e9 / double(stepped) : 0.0;
}
BENCHMARK(BM_RunPrivateRegion)
    ->Arg(144)
    ->Arg(1024)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

/**
 * The order-inference oracle alone: one list-set history of 25,000
 * operations (4 CPUs x 6,250, the size of perfbench's `checked`
 * large-history point, on the benchmarks' machine) recorded once,
 * then inferred and replayed every iteration. Reports host ns per
 * version record.
 */
void
BM_InferLargeHistory(benchmark::State &state)
{
    workload::ListSetBenchConfig cfg;
    cfg.cpus = 4;
    cfg.useElision = true;
    cfg.iterations = 6250;
    cfg.opLog = true;
    sim::MachineConfig mcfg = bench::benchMachine();
    mcfg.activeCpus = cfg.cpus;
    mcfg.seed = cfg.seed;
    const std::vector<std::uint64_t> keys =
        workload::listSetPrefillKeys(cfg);
    const isa::Program program = workload::buildListSetProgram(cfg);
    sim::Machine machine(mcfg);
    workload::prepareListSet(machine, keys, cfg.cpus);
    machine.setProgramAll(&program);
    workload::OpLog log(machine.numCpus());
    for (unsigned i = 0; i < machine.numCpus(); ++i)
        machine.cpu(i).setOpRecorder(&log);
    machine.run();
    const std::vector<inject::LinOp> history = log.history(
        [](const workload::OpRecord &rec, inject::LinOp &op) {
            op.code = inject::LinOpCode(rec.code);
            op.arg = rec.a0;
            op.result = rec.result;
        });

    double seconds = 0.0;
    std::uint64_t records = 0;
    for (auto _ : state) {
        const auto t0 = std::chrono::steady_clock::now();
        const inject::OrderInferReport r =
            inject::inferSetLinearizable(history, keys);
        const auto t1 = std::chrono::steady_clock::now();
        const double s = std::chrono::duration<double>(t1 - t0).count();
        state.SetIterationTime(s);
        seconds += s;
        records += r.versionRecords;
        if (!r.inferred || !r.verdict.linearizable) {
            state.SkipWithError("history not inferred as linearizable");
            break;
        }
    }
    state.counters["version_records"] =
        double(log.versionRecords());
    state.counters["ns_per_record"] =
        records ? seconds * 1e9 / double(records) : 0.0;
}
BENCHMARK(BM_InferLargeHistory)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

/**
 * Like BENCHMARK_MAIN(), but honours the zTX JSON conventions:
 * `--json <path>` / `ZTX_BENCH_JSON=<dir>` are translated into
 * google-benchmark's own --benchmark_out/--benchmark_out_format
 * flags, so BENCH_components.json lands next to the other reports
 * (in google-benchmark's schema rather than ztx.bench).
 */
int
main(int argc, char **argv)
{
    // The same heap the paper binaries run with, so construction
    // times match theirs.
    ztx::bench::retainFreedMemory();
    const std::string json_path =
        ztx::bench::jsonReportPath("components", argc, argv);

    std::vector<std::string> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            ++i; // skip the path operand too
            continue;
        }
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            continue;
        args.emplace_back(argv[i]);
    }
    if (!json_path.empty()) {
        args.push_back("--benchmark_out=" + json_path);
        args.push_back("--benchmark_out_format=json");
    }
    std::vector<char *> argp;
    argp.reserve(args.size());
    for (std::string &arg : args)
        argp.push_back(arg.data());
    int bench_argc = int(argp.size());

    benchmark::Initialize(&bench_argc, argp.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               argp.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
