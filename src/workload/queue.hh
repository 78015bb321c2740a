/**
 * @file
 * The concurrent linked queue experiment (paper §IV, in-text): the
 * IBM Java team implemented ConcurrentLinkedQueue with constrained
 * transactions and measured about 2x the lock-based throughput.
 *
 * The queue is a singly-linked list with a dummy head: enqueue links
 * a pre-initialized node after the tail; dequeue advances the head.
 * Both fit comfortably within the constrained-transaction limits
 * (<= 4 octowords, straight-line code, forward branches only).
 */

#ifndef ZTX_WORKLOAD_QUEUE_HH
#define ZTX_WORKLOAD_QUEUE_HH

#include <cstdint>

#include "inject/lincheck.hh"
#include "inject/oracle.hh"
#include "inject/order_infer.hh"
#include "isa/program.hh"
#include "sim/machine.hh"
#include "workload/report.hh"

namespace ztx::workload {

/** Queue experiment configuration. */
struct QueueBenchConfig
{
    unsigned cpus = 2;
    /** Enqueue/dequeue pairs per CPU. */
    unsigned iterations = 300;
    /** true: TBEGINC; false: global spin lock. */
    bool useConstrainedTx = true;
    std::uint64_t seed = 1;
    /**
     * Record an operation history and check it for linearizability
     * after the run. Off: the generated program is bit-identical to
     * the unlogged one.
     */
    bool opLog = false;
    /** Per-CPU op-log ring capacity (overflow truncates). */
    std::size_t opLogCapacity = 1u << 16;
    sim::MachineConfig machine{};
};

/** Outcome of one queue run. */
struct QueueBenchResult
{
    double meanRegionCycles = 0;
    double throughput = 0;
    std::uint64_t txCommits = 0;
    std::uint64_t txAborts = 0;
    /** Instructions executed, summed over CPUs. */
    std::uint64_t instructions = 0;
    /** Abort counts keyed by tx::abortReasonName(). */
    std::map<std::string, std::uint64_t> abortsByReason;

    /** Poison/machine-check activity (zero without RAS faults). */
    RasSummary ras;

    std::uint64_t dequeuedNonEmpty = 0;
    /** Nodes remaining in the queue at the end (consistency). */
    std::uint64_t finalLength = 0;
    Cycles elapsedCycles = 0;

    /** The forward-progress watchdog stopped the run (chaos). */
    bool watchdogFired = false;
    /** Structural verdict (inject::checkQueue). */
    inject::OracleReport oracle;
    /** History verdict (cfg.opLog; unchecked when logging is off). */
    inject::LinVerdict lincheck;
    /** Full order-inference report behind `lincheck`. */
    inject::OrderInferReport orderInfer;
};

/** Build the generated program for @p cfg. */
isa::Program buildQueueProgram(const QueueBenchConfig &cfg);

/** Run the experiment. */
QueueBenchResult runQueueBench(const QueueBenchConfig &cfg);

} // namespace ztx::workload

#endif // ZTX_WORKLOAD_QUEUE_HH
