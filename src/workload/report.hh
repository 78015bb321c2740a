/**
 * @file
 * Plain-text series table for the benchmark binaries: one x column
 * (e.g. "CPUs") plus one column per series, printed aligned — the
 * rows/series that regenerate the paper's figures.
 */

#ifndef ZTX_WORKLOAD_REPORT_HH
#define ZTX_WORKLOAD_REPORT_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace ztx::sim {
class Machine;
} // namespace ztx::sim

namespace ztx::workload {

/** Column-aligned x/series table. */
class SeriesTable
{
  public:
    /**
     * @param x_label Header of the x column.
     * @param series Headers of the value columns.
     */
    SeriesTable(std::string x_label,
                std::vector<std::string> series);

    /** Append a row; @p values must match the series count. */
    void addRow(double x, const std::vector<double> &values);

    /** Print the aligned table. */
    void print(std::ostream &os) const;

    /** Value at (@p row, @p series_idx), for tests. */
    double value(std::size_t row, std::size_t series_idx) const;

    /** Number of rows. */
    std::size_t rows() const { return rows_.size(); }

  private:
    std::string xLabel_;
    std::vector<std::string> series_;
    struct Row
    {
        double x;
        std::vector<double> values;
    };
    std::vector<Row> rows_;
};

/**
 * Transactional activity summed over every CPU of a machine — the
 * common tail every benchmark runner reports.
 */
struct TxStatsSummary
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t xiRejects = 0;
    std::uint64_t instructions = 0;
    /** Abort counts keyed by tx::abortReasonName(). */
    std::map<std::string, std::uint64_t> abortsByReason;
};

/** Collect the per-CPU "tx.*" / "instructions" counters. */
TxStatsSummary collectTxStats(const sim::Machine &machine);

/**
 * RAS (line-poisoning) activity of one run: how often lines were
 * poisoned, how the poison moved, and what the recovery ladder did
 * about it (scrub on a clean copy, workload restart otherwise).
 * All zero when the fault plan injects no poison.
 */
struct RasSummary
{
    /** Lines poisoned by the injector ("poison.injected"). */
    std::uint64_t poisoned = 0;
    /** Poison propagation events (fetch + castout + XI transfer). */
    std::uint64_t spread = 0;
    /** Machine checks taken (per-CPU "machine_checks" summed). */
    std::uint64_t machineChecks = 0;
    /** Lines scrubbed clean from memory ("poison.scrubbed"). */
    std::uint64_t scrubs = 0;
    /** Workload items killed and restarted (no clean copy). */
    std::uint64_t restarts = 0;
    /** Transactions aborted by poisoned footprint lines. */
    std::uint64_t poisonAborts = 0;
};

/** Collect the poison/machine-check counters. */
RasSummary collectRasStats(const sim::Machine &machine);

/**
 * First hot-path index-consistency violation across the machine —
 * every cache array's tag/valid/flag index and every CPU's
 * gathering-store-cache block index verified against ground truth —
 * or "" when all indexes are consistent. The chaos oracles run this
 * after every campaign so fault injection cross-checks the O(1)
 * lookup structures, not just the architectural state.
 */
std::string indexOracleCheck(const sim::Machine &machine);

} // namespace ztx::workload

#endif // ZTX_WORKLOAD_REPORT_HH
