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

/** Outcome of one queue run; inject::checkQueue's walk gives
 *  finalLength (both fields zero when the watchdog fired). */
struct QueueBenchResult : RunSummary
{
    std::uint64_t dequeuedNonEmpty = 0;
    /** Nodes remaining in the queue at the end (consistency). */
    std::uint64_t finalLength = 0;
};

/** Build the generated program for @p cfg. */
isa::Program buildQueueProgram(const QueueBenchConfig &cfg);

/** Run the experiment. */
QueueBenchResult runQueueBench(const QueueBenchConfig &cfg);

} // namespace ztx::workload

#endif // ZTX_WORKLOAD_QUEUE_HH
