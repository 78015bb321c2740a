#include "report.hh"

#include <cstdio>
#include <iostream>
#include <utility>

#include "common/log.hh"
#include "debug/replay_dump.hh"
#include "sim/machine.hh"
#include "workload/op_log.hh"

namespace ztx::workload {

RunSummary
summarizeRun(const sim::Machine &machine, Cycles elapsed)
{
    static const std::string abort_prefix = "tx.abort.";
    RunSummary sum;
    sum.elapsedCycles = elapsed;
    sum.watchdogFired = machine.watchdogFired();
    double region_sum = 0;
    std::uint64_t region_count = 0;
    for (unsigned i = 0; i < machine.numCpus(); ++i) {
        const core::Cpu &cpu = machine.cpu(i);
        region_sum += cpu.regionCycles().sum();
        region_count += cpu.regionCycles().total();
        const StatGroup &stats = cpu.stats();
        sum.txCommits += stats.value("tx.commits");
        sum.txAborts += stats.value("tx.aborts");
        sum.xiRejects += stats.value("xi.rejects_sent");
        sum.instructions += stats.value("instructions");
        sum.speculationReduced +=
            stats.value("millicode.speculation_reduced");
        sum.ras.machineChecks += stats.value("machine_checks");
        sum.ras.restarts += stats.value("workload_restarts");
        sum.ras.poisonAborts += stats.value("tx.abort.data-poisoned");
        const auto &counters = stats.counters();
        for (auto it = counters.lower_bound(abort_prefix);
             it != counters.end() &&
             it->first.compare(0, abort_prefix.size(),
                               abort_prefix) == 0;
             ++it)
            sum.abortsByReason[it->first.substr(
                abort_prefix.size())] += it->second.value();
    }
    sum.meanRegionCycles =
        region_count ? region_sum / double(region_count) : 0.0;
    if (sum.meanRegionCycles > 0)
        sum.throughput =
            double(machine.numCpus()) / sum.meanRegionCycles;

    const StatGroup &hier = machine.hierarchy().stats();
    sum.ras.poisoned = hier.value("poison.injected");
    sum.ras.spread = hier.value("poison.spread_fetch") +
                     hier.value("poison.spread_castout") +
                     hier.value("poison.spread_xi");
    sum.ras.scrubs = hier.value("poison.scrubbed");
    return sum;
}

std::string
indexOracleCheck(const sim::Machine &machine)
{
    std::string why = machine.hierarchy().indexCheck();
    if (!why.empty())
        return why;
    for (unsigned i = 0; i < machine.numCpus(); ++i) {
        why = machine.cpu(i).storeCache().indexCheck();
        if (!why.empty())
            return "cpu" + std::to_string(i) +
                   " store cache: " + why;
    }
    return "";
}

bool
checkRunHistory(RunSummary &res, const OpLog *log,
                const HistoryDecode &decode, const HistoryInfer &infer)
{
    if (log) {
        const auto history = log->history(decode);
        std::string refused;
        if (log->truncated()) {
            refused = "operation log truncated (ring overflow "
                      "dropped records)";
        } else if (log->protocolErrors()) {
            refused = std::to_string(log->protocolErrors()) +
                      " op-log protocol error(s): the generated "
                      "program mis-nested OPLOGB/OPLOGE";
        }
        if (refused.empty()) {
            res.orderInfer = infer(history);
        } else {
            // Neither oracle can vouch for this history.
            res.orderInfer.verdict.numOps = log->totalOps();
            res.orderInfer.verdict.truncated = log->truncated();
            res.orderInfer.verdict.reason = refused;
            res.orderInfer.fallbackReason = refused;
        }
        res.lincheck = res.orderInfer.verdict;
        if (res.lincheck.checked && !res.lincheck.linearizable) {
            res.oracle.fail("operation history not linearizable: " +
                            res.lincheck.reason);
            std::cerr << debug::replayScheduleDump(history,
                                                   res.orderInfer);
        }
    }
    if (res.watchdogFired) {
        // Mid-flight transactions hold buffered state; the
        // structure cannot be judged. The run itself is the failure.
        res.oracle.fail("forward-progress watchdog fired; "
                        "structures unchecked");
        return false;
    }
    return true;
}

void
runAndJudge(
    RunSummary &res, const char *name,
    const sim::MachineConfig &machine, unsigned cpus,
    std::uint64_t seed, const isa::Program &program,
    const std::function<void(sim::Machine &)> &prepare, bool op_log,
    std::size_t op_log_capacity, const HistoryDecode &decode,
    const HistoryInfer &infer,
    const std::function<inject::OracleReport(sim::Machine &)>
        &structure)
{
    sim::MachineConfig mcfg = machine;
    mcfg.activeCpus = cpus;
    mcfg.seed = seed;
    sim::Machine m(mcfg);
    if (prepare)
        prepare(m);
    m.setProgramAll(&program);
    OpLog log(m.numCpus(), op_log_capacity);
    if (op_log) {
        for (unsigned i = 0; i < m.numCpus(); ++i)
            m.cpu(i).setOpRecorder(&log);
    }
    const Cycles elapsed = m.run();
    res = summarizeRun(m, elapsed);
    if (!m.allHalted() && !res.watchdogFired)
        ztx_fatal(name, " benchmark did not run to completion");
    if (!checkRunHistory(res, op_log ? &log : nullptr, decode, infer))
        return;
    m.drainAllStores();
    inject::OracleReport structural = structure(m);
    for (auto &v : structural.violations)
        res.oracle.fail(std::move(v));
    if (std::string why = indexOracleCheck(m); !why.empty())
        res.oracle.fail("hot-path index inconsistent: " + why);
}

SeriesTable::SeriesTable(std::string x_label,
                         std::vector<std::string> series)
    : xLabel_(std::move(x_label)), series_(std::move(series))
{
}

void
SeriesTable::addRow(double x, const std::vector<double> &values)
{
    if (values.size() != series_.size())
        ztx_panic("row width ", values.size(), " != series count ",
                  series_.size());
    rows_.push_back({x, values});
}

double
SeriesTable::value(std::size_t row, std::size_t series_idx) const
{
    return rows_.at(row).values.at(series_idx);
}

void
SeriesTable::print(std::ostream &os) const
{
    constexpr int width = 14;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%*s", width, xLabel_.c_str());
    os << buf;
    for (const auto &name : series_) {
        std::snprintf(buf, sizeof(buf), "%*s", width, name.c_str());
        os << buf;
    }
    os << '\n';
    for (const auto &row : rows_) {
        std::snprintf(buf, sizeof(buf), "%*.4g", width, row.x);
        os << buf;
        for (const double v : row.values) {
            std::snprintf(buf, sizeof(buf), "%*.4g", width, v);
            os << buf;
        }
        os << '\n';
    }
}

} // namespace ztx::workload
