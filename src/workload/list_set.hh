/**
 * @file
 * Sorted singly-linked-list set: the classic transactional-memory
 * data structure whose read set grows with the traversal length.
 *
 * Each operation walks the list from a head sentinel to the key's
 * sorted position and then looks it up, inserts it, or deletes it.
 * Synchronization is either a global spin lock or figure-1 lock
 * elision. Long traversals exercise the LRU-extension read-footprint
 * machinery and give conflicts a realistic profile (every writer
 * invalidates a prefix of every concurrent reader's set).
 */

#ifndef ZTX_WORKLOAD_LIST_SET_HH
#define ZTX_WORKLOAD_LIST_SET_HH

#include <cstdint>
#include <vector>

#include "isa/program.hh"
#include "sim/machine.hh"
#include "workload/report.hh"

namespace ztx::workload {

/** Linked-list set experiment configuration. */
struct ListSetBenchConfig
{
    unsigned cpus = 2;
    /** Keys are drawn from [1, keySpace]. */
    unsigned keySpace = 64;
    /** Fraction of the key space pre-inserted before measuring. */
    unsigned prefillPercent = 50;
    /** Operation mix; the remainder are deletes. */
    unsigned lookupPercent = 60;
    unsigned insertPercent = 20;
    bool useElision = false; ///< false: global spin lock
    unsigned iterations = 200;
    std::uint64_t seed = 1;
    /**
     * Record an operation history (OPLOGB/OPLOGE around every
     * region, OPLOGV version footprints inside) and check it for
     * linearizability after the run. Off: the generated program is
     * bit-identical to the unlogged one.
     */
    bool opLog = false;
    /** Per-CPU op-log ring capacity (overflow truncates). */
    std::size_t opLogCapacity = 1u << 16;
    sim::MachineConfig machine{};
};

/** Outcome of one list-set run; inject::checkListSet's walk gives
 *  the structure fields (zero when the watchdog fired). */
struct ListSetBenchResult : RunSummary
{
    /** Final list length. */
    unsigned finalLength = 0;
    /** Keys strictly ascending along the walk. */
    bool sorted = false;
    /** finalLength matches prefill + the CPUs' net insert counts. */
    bool lengthConsistent = false;
};

/** Build the generated program for @p cfg. */
isa::Program buildListSetProgram(const ListSetBenchConfig &cfg);

/** The keys the list starts with: cfg.prefillPercent of the key
 *  space, drawn from cfg.seed, ascending. */
std::vector<std::uint64_t>
listSetPrefillKeys(const ListSetBenchConfig &cfg);

/**
 * Write the sorted chain of @p keys into @p machine's memory and
 * point each of its first @p cpus CPUs' node-arena register at its
 * own arena: the initial state of runListSetBench()'s machine.
 */
void prepareListSet(sim::Machine &machine,
                    const std::vector<std::uint64_t> &keys,
                    unsigned cpus);

/** Run the experiment and validate the structure afterwards. */
ListSetBenchResult runListSetBench(const ListSetBenchConfig &cfg);

} // namespace ztx::workload

#endif // ZTX_WORKLOAD_LIST_SET_HH
