/**
 * @file
 * Operation-history linearizability checker for the chaos oracles.
 *
 * The structural oracles (oracle.hh) verify committed *state*; this
 * checker verifies committed *behavior*: given the invoke/response
 * history the workloads record through the per-CPU operation log
 * (workload/op_log.hh), decide whether some total order of the
 * operations (a) respects real-time precedence — if a responded
 * before b was invoked, a comes first — and (b) replays correctly
 * against a sequential specification of the data structure. A lost
 * update, duplicate dequeue, or stale read produces a history no
 * such order explains, even when the final structure looks intact.
 *
 * Algorithm: Wing–Gong / Lowe-style DFS over linearization
 * prefixes with memoization of visited (done-set, spec-state)
 * configurations. The simulator's deterministic global cycle order
 * gives a strong pruning fast path: whenever exactly one operation
 * is minimal in real-time order (the common case — windows only
 * overlap while CPUs contend), its position is forced and the
 * search degenerates to a linear scan with no memo traffic.
 *
 * Operations pending at the end of a run (invoked, no response —
 * e.g. in flight when the watchdog halted the machine) *may* have
 * taken effect: the search branches over applying each pending
 * operation (with unconstrained result) or dropping it entirely.
 */

#ifndef ZTX_INJECT_LINCHECK_HH
#define ZTX_INJECT_LINCHECK_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "common/types.hh"

namespace ztx::inject {

/** ADT operation codes shared by the workloads and the checker. */
enum class LinOpCode : std::uint32_t
{
    SetLookup = 0,  ///< arg=key, result: 1 found / 0 absent
    SetInsert = 1,  ///< arg=key, result: 1 applied / 0 duplicate
    SetDelete = 2,  ///< arg=key, result: 1 applied / 0 absent
    QueueEnqueue = 3, ///< arg=value, result ignored
    QueueDequeue = 4, ///< result: dequeued value, 0 when empty
    MapGet = 5,     ///< arg=key, result: stored value, 0 on miss
    MapPut = 6,     ///< arg=key, result: 1 applied / 0 probe-full
};

/** Mnemonic of @p code ("lookup", "enqueue", ...). */
const char *linOpCodeName(LinOpCode code);

/**
 * One versioned line access of a committed region's footprint
 * (order_infer.hh): the region observed (read) or installed (write)
 * version @p version of the object at line address objid(). Writes
 * bump the per-object version by one, so version chains totally
 * order the writers of an object and place every reader between two
 * writers.
 *
 * 16 bytes: objects are 256-byte lines, so the write flag rides in
 * bit 0 of the line address (as a trace record marks a write in its
 * object id); the version keeps all 64 bits.
 */
struct VersionAccess
{
    /** The object's line address with the write flag in bit 0. */
    Addr lineAndWrite = 0;
    std::uint64_t version = 0;

    VersionAccess() = default;
    /** @p line must be line-aligned (panics otherwise). */
    VersionAccess(Addr line, std::uint64_t ver, bool write)
        : lineAndWrite(line | Addr(write)), version(ver)
    {
        if (lineOffset(line) != 0)
            ztx_panic("version record for unaligned object ", line);
    }

    /** Cache-line address of the object. */
    Addr objid() const { return lineAndWrite & ~Addr(1); }
    bool write() const { return (lineAndWrite & 1) != 0; }
};

static_assert(sizeof(VersionAccess) == 16,
              "a version record is a line word and a version");

/**
 * A read-only view of one operation's version records. A history
 * never owns its records: the operation log's per-CPU arena
 * (workload/op_log.hh), or whatever storage built a hand-made
 * history, must outlive every check of it.
 */
class VersionSpan
{
  public:
    VersionSpan() = default;
    VersionSpan(const VersionAccess *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    const VersionAccess *begin() const { return data_; }
    const VersionAccess *end() const { return data_ + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const VersionAccess &operator[](std::size_t i) const
    {
        return data_[i];
    }

  private:
    const VersionAccess *data_ = nullptr;
    std::size_t size_ = 0;
};

/** One operation of a recorded history. */
struct LinOp
{
    Cycles invoke = 0;
    /** Ignored when pending. */
    Cycles response = 0;
    /** Invoked but unresponded when the run stopped. */
    bool pending = false;

    LinOpCode code = LinOpCode::SetLookup;
    std::uint64_t arg = 0;
    /** Observed result; meaningless when pending. */
    std::uint64_t result = 0;

    /** @name Provenance (diagnostics only) @{ */
    CpuId cpu = 0;
    std::uint32_t seq = 0; ///< per-CPU sequence number
    /** @} */

    /**
     * Version-order records of the operation's committed region
     * (empty when version recording was off or the run stopped
     * before the region committed). Consumed by order_infer.hh; the
     * DFS checker ignores them.
     */
    VersionSpan accesses;
};

/**
 * Search limits: blowup protection for adversarial histories. The
 * search keeps its branch frames on an explicit heap stack (one
 * frame per *undecided branch point*, not per operation), so no
 * history size can overflow the host stack; maxStates alone bounds
 * the work, and arbitrarily large pending histories come back with
 * a real verdict instead of an unchecked refusal.
 */
struct LinCheckLimits
{
    /** Specification apply attempts before giving up unchecked. */
    std::uint64_t maxStates = 4'000'000;
};

/** Outcome of one linearizability check. */
struct LinVerdict
{
    /**
     * False when no verdict could be reached: truncated or
     * malformed history, or the state limit was hit. `reason` says
     * why. `linearizable` is meaningless then.
     */
    bool checked = false;
    bool linearizable = false;
    /**
     * The operation log overflowed and dropped records: the history
     * is an incomplete suffix and can never be checked (checked
     * stays false). Distinguished from other unchecked outcomes so
     * harnesses report truncation instead of treating it as a
     * checker failure.
     */
    bool truncated = false;

    std::uint64_t numOps = 0;
    std::uint64_t numPending = 0;
    std::uint64_t statesExplored = 0;

    /** Why the history is unchecked / not linearizable. */
    std::string reason;
    /**
     * The frontier at the deepest failure: the concurrent
     * operations none of which can be linearized next. Empty when
     * linearizable.
     */
    std::vector<LinOp> window;
};

/** @p v as a JSON object (bench records, diagnosis bundles). */
Json linVerdictJson(const LinVerdict &v);

/**
 * Check a set history (SetLookup/SetInsert/SetDelete) against the
 * sequential set specification starting from @p initial_keys.
 */
LinVerdict checkSetLinearizable(
    const std::vector<LinOp> &history,
    const std::vector<std::uint64_t> &initial_keys,
    const LinCheckLimits &limits = {});

/**
 * Check a FIFO queue history (QueueEnqueue/QueueDequeue) against
 * the sequential queue specification starting from
 * @p initial_values (front first). Values need not be unique.
 */
LinVerdict checkQueueLinearizable(
    const std::vector<LinOp> &history,
    const std::vector<std::uint64_t> &initial_values,
    const LinCheckLimits &limits = {});

/**
 * Check an open-addressed map history (MapGet/MapPut) against the
 * bounded-linear-probing specification the hashtable workload
 * implements: @p initial_slots is the slot array (index -> key, 0
 * empty) of @p buckets + @p max_probes entries; @p bucket_of maps a
 * key to its home slot. Stored values equal keys (the workload's
 * invariant), so MapGet results are validated against the key.
 */
LinVerdict checkMapLinearizable(
    const std::vector<LinOp> &history,
    const std::vector<std::uint64_t> &initial_slots,
    unsigned buckets, unsigned max_probes,
    const std::function<std::uint64_t(std::uint64_t)> &bucket_of,
    const LinCheckLimits &limits = {});

} // namespace ztx::inject

#endif // ZTX_INJECT_LINCHECK_HH
