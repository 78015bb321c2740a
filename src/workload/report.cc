#include "report.hh"

#include <cstdio>
#include <utility>

#include "common/log.hh"
#include "sim/machine.hh"

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
        region_count += cpu.regionCycles().count();
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
