/**
 * @file
 * Consistency oracle for the workloads: after a run, walk the shared
 * data structures in simulated memory and verify the invariants that
 * every linearizable history of the workload must preserve. A fault
 * injector may slow a run down arbitrarily, but committed state must
 * never be corrupt — any violation here means isolation or atomicity
 * was broken. These walks are the only post-run readers of a
 * structure's layout: each check also returns what it measured for
 * the runner's result.
 *
 * The checkers are deliberately host-side and structural (no timing
 * state): they can run after watchdog-interrupted machines too, as
 * long as the caller only asks once every CPU halted (mid-flight
 * transactions otherwise hide buffered stores). That precondition is
 * enforced, not just documented: every checker takes the caller's
 * all-CPUs-halted observation and refuses the walk (with a
 * violation, so the run still fails loudly) when it does not hold.
 */

#ifndef ZTX_INJECT_ORACLE_HH
#define ZTX_INJECT_ORACLE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ztx::mem {
class MainMemory;
} // namespace ztx::mem

namespace ztx::inject {

/** Outcome of one oracle check. */
struct OracleReport
{
    bool ok = true;
    /** Human-readable descriptions of every violated invariant. */
    std::vector<std::string> violations;

    /** Record a violation. */
    void
    fail(std::string what)
    {
        ok = false;
        violations.push_back(std::move(what));
    }

    /** "ok" or the violations joined by "; ". */
    std::string summary() const;
};

/** checkListSet()'s verdict and what its walk measured. */
struct ListSetReport : OracleReport
{
    /** Nodes reached from the head sentinel. */
    std::uint64_t length = 0;
    /** Keys strictly ascended along the walk. */
    bool sorted = false;
};

/** checkQueue()'s verdict and the queue's residual length. */
struct QueueReport : OracleReport
{
    /** Nodes reached past the dummy head. */
    std::uint64_t length = 0;
};

/** checkHashTable()'s verdict and the table's occupied slots. */
struct HashTableReport : OracleReport
{
    std::uint64_t occupied = 0;
};

/**
 * Check the sorted-list-set structure (workload/list_set.cc layout:
 * head sentinel with next at @p head_sentinel + 8; nodes key@+0,
 * next@+8): the walk terminates (acyclic), keys strictly ascend,
 * and the length equals @p expected_length (prefill plus the CPUs'
 * net insert counters — the linearizable effect count).
 *
 * @param all_cpus_halted Caller's observation that every CPU halted
 *        (e.g. Machine::allHalted()). False refuses the walk with a
 *        violation: mid-flight transactions hide buffered stores.
 */
ListSetReport checkListSet(const mem::MainMemory &mem, bool all_cpus_halted,
                           Addr head_sentinel,
                           std::int64_t expected_length);

/**
 * Check the linked queue (workload/queue.cc layout: head pointer at
 * @p head_ptr_addr, tail pointer at @p tail_ptr_addr, nodes
 * value@+0 next@+8 with a dummy head): the walk from head
 * terminates, the tail pointer is the last reachable node, its next
 * is null, and the residual length equals @p expected_length
 * (enqueues minus successful dequeues).
 *
 * @param all_cpus_halted See checkListSet().
 */
QueueReport checkQueue(const mem::MainMemory &mem, bool all_cpus_halted,
                       Addr head_ptr_addr, Addr tail_ptr_addr,
                       std::int64_t expected_length);

/**
 * Check the open-addressed hash table (workload/hashtable.cc
 * layout: slot i at @p table_base + i*256, key@+0 value@+8, 0 marks
 * empty, linear probing without wraparound into a padded tail):
 * every key sits inside its probe window [bucket_of(key),
 * bucket_of(key) + max_probes), appears only once, carries the
 * workload's value==key payload, and the occupied-slot count lies
 * in [min_occupied, max_occupied] (puts only ever add keys).
 *
 * @param all_cpus_halted See checkListSet().
 */
HashTableReport checkHashTable(
    const mem::MainMemory &mem, bool all_cpus_halted,
    Addr table_base, unsigned buckets, unsigned max_probes,
    const std::function<std::uint64_t(std::uint64_t)> &bucket_of,
    std::int64_t min_occupied, std::int64_t max_occupied);

} // namespace ztx::inject

#endif // ZTX_INJECT_ORACLE_HH
