#include "json_report.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace ztx::bench {

std::string
jsonReportPath(const std::string &bench_name, int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--json") == 0) {
            if (i + 1 < argc)
                return argv[i + 1];
            std::fprintf(stderr, "ztx-bench: --json needs a path "
                                 "operand; ignoring\n");
            break;
        }
        if (std::strncmp(arg, "--json=", 7) == 0)
            return arg + 7;
    }
    if (const char *dir = std::getenv("ZTX_BENCH_JSON")) {
        if (*dir)
            return std::string(dir) + "/BENCH_" + bench_name +
                   ".json";
    }
    return {};
}

void
retainFreedMemory()
{
#ifdef __GLIBC__
    // Otherwise glibc hands a dead machine's cache arrays back to the
    // OS (unmapped or trimmed), and the next machine takes their page
    // faults again.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    // One arena for runPoints()'s workers too: with an arena per
    // thread and no trimming, each worker would keep its own high
    // water mark of freed machines.
    mallopt(M_ARENA_MAX, 1);
#endif
}

Json
rasStatsJson(const workload::RasSummary &ras)
{
    Json s = Json::object();
    s["poisoned"] = ras.poisoned;
    s["spread"] = ras.spread;
    s["machine_checks"] = ras.machineChecks;
    s["scrubs"] = ras.scrubs;
    s["restarts"] = ras.restarts;
    s["poison_aborts"] = ras.poisonAborts;
    return s;
}

Json
abortBreakdownJson(
    const std::map<std::string, std::uint64_t> &aborts_by_reason)
{
    Json breakdown = Json::object();
    for (const auto &[reason, count] : aborts_by_reason)
        breakdown[reason] = count;
    return breakdown;
}

Json
resultJson(const workload::RunSummary &res)
{
    Json r = Json::object();
    r["throughput"] = res.throughput;
    r["mean_region_cycles"] = res.meanRegionCycles;
    r["commits"] = res.txCommits;
    r["aborts"] = res.txAborts;
    const double attempts = double(res.txCommits + res.txAborts);
    r["abort_rate"] =
        attempts > 0.0 ? double(res.txAborts) / attempts : 0.0;
    r["aborts_by_reason"] = abortBreakdownJson(res.abortsByReason);
    r["sim_cycles"] = std::uint64_t(res.elapsedCycles);
    r["instructions"] = res.instructions;
    r["ras"] = rasStatsJson(res.ras);
    return r;
}

JsonReport::JsonReport(std::string bench_name, int argc,
                       char **argv)
    : name_(std::move(bench_name)),
      path_(jsonReportPath(name_, argc, argv)),
      start_(std::chrono::steady_clock::now())
{
    retainFreedMemory();
}

void
JsonReport::setMachineConfig(const sim::MachineConfig &config)
{
    if (enabled())
        meta_["machine"] = sim::machineConfigJson(config);
}

void
JsonReport::addRecord(Json record)
{
    if (enabled())
        records_.push(std::move(record));
}

void
JsonReport::addSimWork(Cycles cycles, std::uint64_t instructions)
{
    simCycles_ += std::uint64_t(cycles);
    instructions_ += instructions;
}

void
JsonReport::addResult(const workload::RunSummary &res, Json fields)
{
    addSimWork(res.elapsedCycles, res.instructions);
    if (!enabled())
        return;
    Json rec = resultJson(res);
    for (auto &[key, value] : fields.items())
        rec[key] = value;
    records_.push(std::move(rec));
}

bool
JsonReport::write()
{
    if (!enabled())
        return true;

    const double host_seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start_)
            .count();

    Json doc = Json::object();
    doc["kind"] = "ztx.bench";
    doc["schema_version"] = 1;
    doc["bench"] = name_;
    doc["meta"] = meta_;
    doc["records"] = records_;

    Json speed = Json::object();
    speed["host_seconds"] = host_seconds;
    speed["sim_cycles"] = simCycles_;
    speed["instructions"] = instructions_;
    speed["sim_cycles_per_host_second"] =
        host_seconds > 0.0 ? double(simCycles_) / host_seconds : 0.0;
    speed["instructions_per_host_second"] =
        host_seconds > 0.0 ? double(instructions_) / host_seconds
                           : 0.0;
    doc["sim_speed"] = std::move(speed);

    std::ofstream out(path_);
    if (!out) {
        std::fprintf(stderr,
                     "ztx-bench: cannot open JSON report path "
                     "'%s'\n",
                     path_.c_str());
        return false;
    }
    doc.write(out, 1);
    out << '\n';
    out.flush();
    if (!out) {
        std::fprintf(stderr,
                     "ztx-bench: failed writing JSON report "
                     "'%s'\n",
                     path_.c_str());
        return false;
    }
    return true;
}

} // namespace ztx::bench
