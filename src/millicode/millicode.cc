#include "millicode.hh"

#include <algorithm>
#include <bit>
#include <string>

#include "common/log.hh"
#include "common/trace.hh"
#include "core/cpu.hh"
#include "tx/tdb.hh"

namespace ztx::millicode {

namespace {

/**
 * base << shift with the shift clamped so the product can neither
 * wrap 64-bit Cycles (adversarial abort counts, misconfigured max
 * shifts) nor exceed a sane backoff ceiling: 2^32 times the base is
 * already beyond any delay the escalation ladder should produce.
 */
Cycles
boundedShiftWindow(Cycles base, unsigned shift)
{
    if (base == 0)
        return 0;
    constexpr unsigned ceiling = 32;
    const unsigned headroom =
        unsigned(std::countl_zero(std::uint64_t(base)));
    return base << std::min({shift, headroom, ceiling});
}

} // namespace

void
MillicodeEngine::transactionAbort(core::Cpu &cpu,
                                  const core::AbortContext &ctx_in)
{
    if (!cpu.inTx())
        ztx_panic("transactionAbort while not in transactional mode");

    core::AbortContext ctx = ctx_in;
    if (ctx.code == 0)
        ctx.code = std::uint64_t(ctx.reason);

    cpu.txAborts_.inc();
    ++cpu.abortsTotal_;
    cpu.stats_.counter(std::string("tx.abort.") +
                       tx::abortReasonName(ctx.reason)).inc();
    ztx_trace(trace::Category::Millicode, "cpu", cpu.id_, " abort ",
              tx::abortReasonName(ctx.reason), " code=", ctx.code,
              " ia=0x", std::hex, cpu.psw_.ia);

    const bool was_constrained = cpu.constrained_;

    // Harvest the diagnostic state before anything is rolled back
    // (the hardware reads SPRs here).
    tx::Tdb tdb;
    tdb.abortCode = ctx.code;
    tdb.conflictToken = ctx.conflictAddr;
    tdb.conflictTokenValid = ctx.conflictValid;
    tdb.abortedIa = cpu.psw_.ia;
    tdb.interruptCode = ctx.interruptCode;
    tdb.translationExceptionAddr = ctx.interruptAddr;
    tdb.grs = cpu.regs_.gr;

    // Invalidate pending transactional stores (STQ and store cache;
    // NTSTG doublewords commit) and remove speculative L1 data.
    cpu.stq_.dropTransactional();
    cpu.storeCache_.abortTransaction(cpu.memory_);
    cpu.hier_.killTxDirtyLines(cpu.id_);
    cpu.hier_.clearTxMarks(cpu.id_);

    // Restore the GR pairs selected at the outermost TBEGIN. Mask
    // bit 0 (MSB) covers GRs 0-1, ... bit 7 covers GRs 14-15.
    for (unsigned pair = 0; pair < 8; ++pair) {
        if (cpu.savedGrsm_ & (0x80u >> pair)) {
            cpu.regs_.gr[2 * pair] = cpu.backupGrs_[2 * pair];
            cpu.regs_.gr[2 * pair + 1] = cpu.backupGrs_[2 * pair + 1];
        }
    }

    // PSW: condition code and resume address. Constrained
    // transactions resume at the TBEGINC itself (immediate retry,
    // no abort path); others resume after the TBEGIN.
    cpu.psw_.cc = tx::abortCc(ctx.reason, ctx.code);
    cpu.psw_.ia = was_constrained
                      ? cpu.tbeginAddr_
                      : cpu.tbeginAddr_ + cpu.tbeginLength_;

    Cycles cost = cpu.cfg_.abortMillicodeCost;
    if (cpu.tdbValid_ && !was_constrained) {
        tdb.store(cpu.memory_, cpu.tdbAddr_);
        cost += cpu.cfg_.tdbStoreCost;
    }
    if (ctx.interruptCode != tx::InterruptCode::None &&
        !ctx.filtered) {
        // Second TDB copy into the CPU prefix area on aborts caused
        // by program interruptions (post-mortem analysis, §II.E.1).
        tdb.store(cpu.memory_, cpu.prefixTdbAddr());
    }

    // Leave transactional-execution mode.
    cpu.txDepth_ = 0;
    cpu.txLevels_.clear();
    cpu.constrained_ = false;
    cpu.versionArmed_ = false; // aborted footprints are not recorded
    cpu.checker_.end();
    cpu.lastAbortCode_ = ctx.code;
    cpu.abortedDuringStep_ = true;
    cpu.rejectsSinceCompletion_ = 0;
    cpu.stalledOnReject_ = false;

    if (was_constrained) {
        const bool os_involved =
            ctx.reason == tx::AbortReason::ExternalInterrupt ||
            (ctx.interruptCode != tx::InterruptCode::None &&
             !ctx.filtered);
        if (os_involved) {
            // The OS may not return for a while; restart the ladder.
            cpu.constrainedAbortCount_ = 0;
        } else {
            ++cpu.constrainedAbortCount_;
            const unsigned count = cpu.constrainedAbortCount_;
            const auto &cfg = cpu.cfg_;
            if (count > cfg.constrainedDelayThreshold) {
                // Successively increasing random delays between
                // retries.
                const unsigned shift = std::min(
                    count - cfg.constrainedDelayThreshold,
                    cfg.constrainedDelayMaxShift);
                const Cycles window = boundedShiftWindow(
                    cfg.constrainedDelayBase, shift);
                if (window != 0) {
                    cost += cpu.rng_.nextBounded(window) + 1;
                    cpu.stats_
                        .counter("millicode.constrained_delays")
                        .inc();
                }
            }
            if (count >= cfg.constrainedSpeculationThreshold &&
                !cpu.speculationReduced_) {
                // "Reducing the amount of speculative execution to
                // avoid encountering aborts caused by speculative
                // accesses to data that the transaction is not
                // actually using" (paper §III.E).
                cpu.speculationReduced_ = true;
                cpu.stats_.counter("millicode.speculation_reduced")
                    .inc();
            }
            if (count >= cfg.constrainedSoloThreshold &&
                !cpu.soloHeld_) {
                // Last resort: broadcast to other CPUs to stop all
                // conflicting work until this transaction retires.
                cpu.env_.requestSolo(cpu.id_);
                cpu.soloHeld_ = true;
                cpu.stats_.counter("millicode.solo_requests").inc();
            }
        }
    }

    cpu.addStall(cost);
}

Cycles
MillicodeEngine::ppaDelay(core::Cpu &cpu, std::uint64_t abort_count)
{
    const auto &cfg = cpu.cfg_;
    const unsigned shift = unsigned(std::min<std::uint64_t>(
        abort_count, cfg.ppaMaxShift));
    const Cycles window =
        boundedShiftWindow(cfg.ppaBaseDelay, shift);
    cpu.stats_.counter("millicode.ppa").inc();
    if (window == 0)
        return 0; // assist configured away (ppaBaseDelay == 0)
    return cpu.rng_.nextBounded(window) + cfg.ppaBaseDelay;
}

void
MillicodeEngine::constrainedSuccess(core::Cpu &cpu)
{
    cpu.constrainedAbortCount_ = 0;
    cpu.speculationReduced_ = false;
    if (cpu.soloHeld_) {
        cpu.env_.releaseSolo(cpu.id_);
        cpu.soloHeld_ = false;
        cpu.stats_.counter("millicode.solo_releases").inc();
    }
}

} // namespace ztx::millicode
