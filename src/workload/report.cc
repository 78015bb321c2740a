#include "report.hh"

#include <cstdio>
#include <utility>

#include "common/log.hh"
#include "sim/machine.hh"

namespace ztx::workload {

TxStatsSummary
collectTxStats(const sim::Machine &machine)
{
    static const std::string abort_prefix = "tx.abort.";
    TxStatsSummary sum;
    for (unsigned i = 0; i < machine.numCpus(); ++i) {
        for (const auto &[stat, c] :
             machine.cpu(i).stats().counters()) {
            if (stat == "tx.commits")
                sum.commits += c.value();
            else if (stat == "tx.aborts")
                sum.aborts += c.value();
            else if (stat == "xi.rejects_sent")
                sum.xiRejects += c.value();
            else if (stat == "instructions")
                sum.instructions += c.value();
            else if (stat.compare(0, abort_prefix.size(),
                                  abort_prefix) == 0)
                sum.abortsByReason[stat.substr(
                    abort_prefix.size())] += c.value();
        }
    }
    return sum;
}

RasSummary
collectRasStats(const sim::Machine &machine)
{
    RasSummary sum;
    const auto &hier = machine.hierarchy().stats().counters();
    const auto get = [](const auto &counters, const char *stat) {
        const auto it = counters.find(stat);
        return it == counters.end() ? std::uint64_t(0)
                                    : it->second.value();
    };
    sum.poisoned = get(hier, "poison.injected");
    sum.spread = get(hier, "poison.spread_fetch") +
                 get(hier, "poison.spread_castout") +
                 get(hier, "poison.spread_xi");
    sum.scrubs = get(hier, "poison.scrubbed");
    for (unsigned i = 0; i < machine.numCpus(); ++i) {
        const auto &cpu = machine.cpu(i).stats().counters();
        sum.machineChecks += get(cpu, "machine_checks");
        sum.restarts += get(cpu, "workload_restarts");
        sum.poisonAborts += get(cpu, "tx.abort.data-poisoned");
    }
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
