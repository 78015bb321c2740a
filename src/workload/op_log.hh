/**
 * @file
 * Host-visible per-CPU operation log: the recording half of the
 * linearizability harness. Each CPU's OPLOGB/OPLOGE pseudo-ops
 * append invoke/response records into that CPU's ring buffer at
 * zero simulated cost; after the run, the workload runner decodes
 * the raw records into a history for inject/lincheck.hh.
 *
 * Semantics of one record:
 *  - invoke: global cycle of OPLOGB, just before the operation's
 *    synchronized region is entered (lock acquire / TBEGIN). The
 *    linearization point cannot be earlier.
 *  - response: global cycle of OPLOGE, just after the region closed
 *    (TEND commit or lock release). The linearization point cannot
 *    be later. Both bounds are conservative by a handful of
 *    straight-line instructions, which can only widen the window —
 *    a widened window never makes a linearizable history fail.
 *  - completed == false: the operation was in flight when the run
 *    stopped (watchdog halt, bounded run). It *may* have taken
 *    effect — the checker must consider both outcomes.
 *
 * Rings are bounded: on overflow the oldest record is dropped and
 * counted. A log with drops is a truncated history and cannot be
 * checked (the checker reports it as such rather than guessing).
 */

#ifndef ZTX_WORKLOAD_OP_LOG_HH
#define ZTX_WORKLOAD_OP_LOG_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"
#include "core/op_recorder.hh"
#include "inject/lincheck.hh"
#include "inject/order_infer.hh"

namespace ztx::workload {

/** One logged ADT operation of one CPU. */
struct OpRecord
{
    std::uint32_t code = 0; ///< workload-specific opcode (OPLOGB imm)
    /**
     * Versioned line accesses of the operation's committed region
     * (OPLOGV): the log assigns each touched line a version at
     * commit time — reads observe the current one, writes install
     * the next — and appends the records to its CPU's arena:
     * `numAccesses` of them from position `firstAccess` of chunk
     * `accessChunk` (OpLog::accesses()); none when version recording
     * is off or the region never committed.
     */
    std::uint32_t numAccesses = 0;
    std::uint64_t a0 = 0;   ///< first argument register at invoke
    std::uint64_t a1 = 0;   ///< second argument register at invoke
    std::uint64_t result = 0; ///< result register at response
    Cycles invoke = 0;
    Cycles response = 0;
    /** Arena chunk of the records, counting freed chunks. */
    std::uint32_t accessChunk = 0;
    std::uint32_t firstAccess = 0;
    /** False: still pending when the run stopped (maybe completed). */
    bool completed = false;
};

/** Per-CPU ring buffers implementing the CPU-side recorder hook. */
class OpLog : public core::OpRecorder
{
  public:
    /**
     * @param cpus Number of CPUs that will record.
     * @param capacity Records retained per CPU before the oldest
     *        are dropped (and counted as truncation).
     */
    explicit OpLog(unsigned cpus, std::size_t capacity = 1u << 16);

    /** @name core::OpRecorder @{ */
    void opInvoke(CpuId cpu, Cycles now, std::uint32_t code,
                  std::uint64_t a0, std::uint64_t a1) override;
    void opResponse(CpuId cpu, Cycles now,
                    std::uint64_t result) override;
    void opCommit(CpuId cpu, Cycles now,
                  const core::FootprintAccess *acc,
                  std::size_t n) override;
    Json pendingOpJson(CpuId cpu) const override;
    /** @} */

    /** The records of @p cpu in program order. */
    const std::deque<OpRecord> &ops(CpuId cpu) const
    {
        return cpus_.at(cpu).ring;
    }

    /** The version records of @p rec, one of @p cpu's records. */
    inject::VersionSpan accesses(CpuId cpu, const OpRecord &rec) const;

    /** Records dropped from @p cpu's ring (overflow). */
    std::uint64_t dropped(CpuId cpu) const
    {
        return cpus_.at(cpu).dropped;
    }

    /**
     * Protocol violations seen (OPLOGE without a pending OPLOGB, or
     * two OPLOGBs without a response between them); any non-zero
     * value means the generated program mis-nested its markers.
     */
    std::uint64_t protocolErrors() const;

    /** True when any CPU dropped records: history unusable. */
    bool truncated() const;

    /** Records across all CPUs (completed + pending). */
    std::size_t totalOps() const;

    /** Version accesses recorded across all CPUs. */
    std::uint64_t versionRecords() const;

    /**
     * Decode every record into a checker history. Timing fields
     * (invoke/response/pending), provenance (cpu/seq) and the version
     * records are filled here; @p decode maps the raw record to the
     * ADT operation (code, arg, result). The operations view their
     * records in the log's arenas: the history is valid while the
     * log lives and records nothing more.
     */
    std::vector<inject::LinOp> history(
        const std::function<void(const OpRecord &,
                                 inject::LinOp &)> &decode) const;

  private:
    /** Each CPU appends only to its own slot. */
    struct PerCpu
    {
        std::deque<OpRecord> ring;
        /**
         * The ring's version records in record order, in chunks of
         * arenaChunk records (one operation's may need a larger
         * one). A chunk never reallocates and an operation's records
         * never straddle two. `arena.front()` is chunk `chunkBase`;
         * a chunk that holds only dropped operations' records is
         * freed.
         */
        std::deque<std::vector<inject::VersionAccess>> arena;
        std::uint32_t chunkBase = 0;
        std::uint64_t dropped = 0;
        std::uint64_t protocolErrors = 0;
    };

    /**
     * Records per arena chunk (256 KiB): fixed-size blocks, so an
     * arena grows without copying, and freed chunks fit the next.
     */
    static constexpr std::uint32_t arenaChunk = 1u << 14;

    /** Drop @p pc's oldest record (ring overflow). */
    static void dropOldest(PerCpu &pc);

    std::size_t capacity_;
    std::vector<PerCpu> cpus_;

    /** Per-line version table, shared across CPUs. */
    std::unordered_map<Addr, std::uint64_t> lineVersions_;
};

} // namespace ztx::workload

#endif // ZTX_WORKLOAD_OP_LOG_HH
