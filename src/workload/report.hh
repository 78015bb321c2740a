/**
 * @file
 * What the benchmark runners report: the plain-text series table
 * (one x column, e.g. "CPUs", plus one column per series, printed
 * aligned — the rows/series that regenerate the paper's figures),
 * the RunSummary every workload runner fills the same way, and the
 * run tail that fills it: run, summarize, then judge the history and
 * the structure.
 */

#ifndef ZTX_WORKLOAD_REPORT_HH
#define ZTX_WORKLOAD_REPORT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "inject/lincheck.hh"
#include "inject/oracle.hh"
#include "inject/order_infer.hh"

namespace ztx::isa {
class Program;
} // namespace ztx::isa

namespace ztx::sim {
class Machine;
struct MachineConfig;
} // namespace ztx::sim

namespace ztx::workload {

class OpLog;
struct OpRecord;

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

/**
 * What every workload runner reports about one run: the measured
 * region timing, the transactional and RAS activity summed over all
 * CPUs, and the run's verdicts. The runners' own result structs
 * derive from it and add only their structure-specific fields.
 */
struct RunSummary
{
    /** Mean measured region length (cycles per operation). */
    double meanRegionCycles = 0;
    /** System throughput: CPUs / meanRegionCycles (paper §IV). */
    double throughput = 0;

    std::uint64_t txCommits = 0;
    std::uint64_t txAborts = 0;
    /** XIs this machine's CPUs rejected (stiff-arming). */
    std::uint64_t xiRejects = 0;
    Cycles elapsedCycles = 0;
    /** Instructions executed, summed over CPUs. */
    std::uint64_t instructions = 0;
    /** Abort counts keyed by tx::abortReasonName(). */
    std::map<std::string, std::uint64_t> abortsByReason;
    /**
     * Times the millicode escalation turned speculation down for a
     * retrying constrained transaction.
     */
    std::uint64_t speculationReduced = 0;

    /** Poison/machine-check activity (zero without RAS faults). */
    RasSummary ras;

    /** The forward-progress watchdog stopped the run (chaos). */
    bool watchdogFired = false;
    /** Structural verdict (the runner's inject::check* oracle). */
    inject::OracleReport oracle;
    /** History verdict (op logging on; unchecked otherwise). */
    inject::LinVerdict lincheck;
    /**
     * Full order-inference report behind `lincheck` (which mirrors
     * its verdict): whether the O(n log n) oracle inferred the
     * order or fell back to the DFS, and why.
     */
    inject::OrderInferReport orderInfer;
};

/**
 * Summarize a run of @p machine that took @p elapsed cycles: the
 * MARKB/MARKE region mean and throughput (0 when no region was
 * measured), the per-CPU "tx.*" / "instructions" counters, the RAS
 * counters and the watchdog flag. Verdicts are left unchecked.
 */
RunSummary summarizeRun(const sim::Machine &machine, Cycles elapsed);

/**
 * First hot-path index-consistency violation across the machine —
 * every cache array's tag/valid/flag index and every CPU's
 * gathering-store-cache block index verified against ground truth —
 * or "" when all indexes are consistent. runAndJudge() runs this
 * after every workload run, so fault injection cross-checks the O(1)
 * lookup structures, not just the architectural state.
 */
std::string indexOracleCheck(const sim::Machine &machine);

/** Maps one op-log record to the runner's ADT operation (code, arg,
 *  result); OpLog::history() fills the timing fields. */
using HistoryDecode =
    std::function<void(const OpRecord &, inject::LinOp &)>;
/** The runner's history oracle (an inject::infer*Linearizable). */
using HistoryInfer = std::function<inject::OrderInferReport(
    const std::vector<inject::LinOp> &)>;

/**
 * The history half of a run's verdict. With @p log set (op logging
 * on), decode its history with @p decode and check it with @p infer
 * — even after a watchdog halt, since the checker reads recorded
 * registers only and in-flight operations stay pending — into
 * `orderInfer` and `lincheck`. A log that cannot vouch for its
 * history (ring overflow: `truncated`; OPLOGB/OPLOGE mis-nesting) is
 * not checked and says why. A non-linearizable history fails
 * `oracle` and dumps its replay schedule to stderr. A watchdog
 * firing then fails `oracle` too.
 * @return True when the structure may be judged (the watchdog did
 *         not fire).
 */
bool checkRunHistory(RunSummary &res, const OpLog *log,
                     const HistoryDecode &decode,
                     const HistoryInfer &infer);

/**
 * The run tail the workload runners share. Builds a machine of
 * @p cpus CPUs from @p machine and @p seed, lets @p prepare (may be
 * empty) write the initial memory image and per-CPU registers, sets
 * @p program on every CPU, attaches an OpLog of @p op_log_capacity
 * records per CPU when @p op_log is set, runs it, and summarizes the
 * run into @p res. Fatal unless every CPU halted or the watchdog
 * fired. Unless the watchdog fired, it then drains every CPU's
 * stores and judges the structure with @p structure and
 * indexOracleCheck(), and frees the machine before it checks the
 * history (checkRunHistory()), so the two never hold memory at
 * once. The structure's violations follow the history's in
 * `res.oracle`. @p structure is the runner's only post-run reader
 * of simulated memory and fills the runner's own result fields,
 * which stay zero when the watchdog fired.
 */
void runAndJudge(
    RunSummary &res, const char *name,
    const sim::MachineConfig &machine, unsigned cpus,
    std::uint64_t seed, const isa::Program &program,
    const std::function<void(sim::Machine &)> &prepare, bool op_log,
    std::size_t op_log_capacity, const HistoryDecode &decode,
    const HistoryInfer &infer,
    const std::function<inject::OracleReport(sim::Machine &)>
        &structure);

} // namespace ztx::workload

#endif // ZTX_WORKLOAD_REPORT_HH
