/**
 * @file
 * Host-side sink for the OPLOGB/OPLOGE pseudo-ops: the interface a
 * CPU calls to record ADT operation invoke/response events into a
 * host-visible operation log (workload/op_log.hh implements it as a
 * per-CPU ring buffer).
 *
 * The CPU records at zero cycle cost so attaching a recorder does
 * not perturb simulated timing; with no recorder attached the
 * pseudo-ops are NOPs. Calls happen inside Cpu::step(); each CPU
 * only ever passes its own id.
 */

#ifndef ZTX_CORE_OP_RECORDER_HH
#define ZTX_CORE_OP_RECORDER_HH

#include <cstddef>
#include <cstdint>

#include "common/json.hh"
#include "common/types.hh"

namespace ztx::core {

/**
 * One line of a committed region's footprint, as the CPU reports it
 * at commit time (OPLOGV): the line address and whether the region
 * wrote it. The recorder assigns per-line version numbers host-side
 * (workload/op_log.hh).
 */
struct FootprintAccess
{
    Addr line = 0;
    bool write = false;
};

/** Receives operation invoke/response events from the CPUs. */
class OpRecorder
{
  public:
    virtual ~OpRecorder() = default;

    /**
     * An operation was invoked (OPLOGB executed).
     * @param cpu Executing CPU.
     * @param now Global cycle of the invoke.
     * @param code Workload-specific operation code (OPLOGB imm).
     * @param a0 First argument register value.
     * @param a1 Second argument register value.
     */
    virtual void opInvoke(CpuId cpu, Cycles now, std::uint32_t code,
                          std::uint64_t a0, std::uint64_t a1) = 0;

    /**
     * The operation invoked last on @p cpu completed (OPLOGE).
     * @param now Global cycle of the response.
     * @param result Observed result register value.
     */
    virtual void opResponse(CpuId cpu, Cycles now,
                            std::uint64_t result) = 0;

    /**
     * A synchronized region of @p cpu committed (outermost TEND with
     * version recording armed by OPLOGV, or a lock-path OPLOGV)
     * touching the @p n lines in @p acc. Called between opInvoke and
     * opResponse of the operation the commit belongs to; the default
     * ignores footprints so recorders predating version-order
     * recording keep working.
     */
    virtual void
    opCommit(CpuId cpu, Cycles now, const FootprintAccess *acc,
             std::size_t n)
    {
        (void)cpu;
        (void)now;
        (void)acc;
        (void)n;
    }

    /**
     * The operation currently in flight on @p cpu (invoked, no
     * response yet) as a JSON object, or null when none — the
     * watchdog diagnosis bundle dumps this per CPU on a hang.
     */
    virtual Json pendingOpJson(CpuId cpu) const = 0;
};

} // namespace ztx::core

#endif // ZTX_CORE_OP_RECORDER_HH
