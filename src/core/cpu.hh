/**
 * @file
 * The zTX CPU model: an interpreter for the mini z-ISA with the
 * complete Transactional Execution facility of paper §II/§III.
 *
 * The CPU executes one instruction per step() against the shared
 * cache hierarchy, returning its cycle cost to the Machine
 * scheduler. It implements mem::CacheClient to evaluate incoming
 * cross interrogates: conflicting Demote/Exclusive XIs are rejected
 * ("stiff-armed") while the transaction hopes to finish, bounded by
 * the hang-avoidance reject counter; non-rejectable XIs that hit the
 * transactional footprint abort the transaction.
 *
 * Aborts are processed by the millicode engine (see
 * millicode/millicode.hh), matching the paper's firmware split.
 */

#ifndef ZTX_CORE_CPU_HH
#define ZTX_CORE_CPU_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/config.hh"
#include "core/store_cache.hh"
#include "debug/os_model.hh"
#include "debug/page_table.hh"
#include "debug/per.hh"
#include "debug/tdc.hh"
#include "core/op_recorder.hh"
#include "isa/program.hh"
#include "isa/registers.hh"
#include "mem/hierarchy.hh"
#include "mem/main_memory.hh"
#include "tx/abort.hh"
#include "tx/constraints.hh"

namespace ztx::millicode {
class MillicodeEngine;
} // namespace ztx::millicode

namespace ztx::core {

/** Everything millicode needs to know about one abort. */
struct AbortContext
{
    tx::AbortReason reason = tx::AbortReason::Miscellaneous;
    /** TDB abort code; defaults to the reason's code. */
    std::uint64_t code = 0;
    /** Conflicting storage address, when known. */
    Addr conflictAddr = 0;
    bool conflictValid = false;
    /** Program-interruption condition behind the abort, if any. */
    tx::InterruptCode interruptCode = tx::InterruptCode::None;
    Addr interruptAddr = 0;
    /** True if the interruption is filtered (no OS involvement). */
    bool filtered = false;
};

/**
 * The state a replayable spin-loop step reads and writes
 * (sim::Machine's spin replay, DESIGN.md §5b): the GRs, the PSW and
 * the dispatch credit.
 */
struct SpinState
{
    std::array<std::uint64_t, isa::numGrs> gr{};
    Addr ia = 0;
    std::uint8_t cc = 0;
    unsigned dispatchCredit = 0;

    bool
    operator==(const SpinState &o) const
    {
        return gr == o.gr && ia == o.ia && cc == o.cc &&
               dispatchCredit == o.dispatchCredit;
    }
};

/** What the instruction at a CPU's PSW is to spin replay. */
enum class SpinStep : std::uint8_t
{
    None,  ///< cannot be replayed
    Plain, ///< register, branch, DELAY or NOP step
    Load   ///< LG/LT within one line
};

/** One simulated CPU. */
class Cpu : public mem::CacheClient
{
  public:
    /**
     * @param id CPU number within the machine.
     * @param hier Shared cache hierarchy (registers itself as the
     *        XI client for @p id).
     * @param memory Functional backing store.
     * @param pages Shared page-present table.
     * @param os Stub operating system for interruptions.
     * @param env Machine services (clock, solo mode).
     * @param config TM parameters and cycle costs.
     * @param seed Seed of this CPU's private RNG.
     */
    Cpu(CpuId id, mem::Hierarchy &hier, mem::MainMemory &memory,
        debug::PageTable &pages, debug::OsModel &os, CpuEnv &env,
        const TmConfig &config, std::uint64_t seed);

    ~Cpu() override;

    Cpu(const Cpu &) = delete;
    Cpu &operator=(const Cpu &) = delete;

    /** Bind the instruction stream and reset the PSW to its entry. */
    void setProgram(const isa::Program *program);

    /**
     * Execute (or retry) one instruction.
     * @return Cycle cost of this step; 0 when halted.
     */
    Cycles step();

    /** True once HALT executed or the OS terminated the program. */
    bool halted() const { return halted_; }

    /** @name Architected state access @{ */
    std::uint64_t gr(unsigned r) const { return regs_.gr.at(r); }
    void setGr(unsigned r, std::uint64_t v) { regs_.gr.at(r) = v; }
    std::uint32_t ar(unsigned r) const { return regs_.ar.at(r); }
    std::uint64_t fpr(unsigned r) const { return regs_.fpr.at(r); }
    const isa::Psw &psw() const { return psw_; }
    /** @} */

    /** @name Transactional state @{ */
    unsigned nestingDepth() const { return txDepth_; }
    bool inTx() const { return txDepth_ > 0; }
    bool inConstrainedTx() const { return inTx() && constrained_; }
    /** @} */

    /** @name Millicode escalation state (tests, diagnostics) @{ */
    unsigned constrainedAbortCount() const
    {
        return constrainedAbortCount_;
    }
    bool soloHeld() const { return soloHeld_; }
    bool speculationReduced() const { return speculationReduced_; }
    std::uint64_t lastAbortCode() const { return lastAbortCode_; }
    /** @} */

    /**
     * Forward-progress events retired so far: outermost transaction
     * commits, measured-region closes (MARKE), and the final HALT.
     * The machine watchdog declares livelock when the machine-wide
     * sum of these stops moving (see MachineConfig::watchdogCycles).
     */
    std::uint64_t progressEvents() const { return progressEvents_; }

    /**
     * Transaction aborts of any reason so far (plain counter for the
     * scenario engine's on-abort triggers; cheaper than a stats
     * lookup on the trigger-poll path).
     */
    std::uint64_t abortsTotal() const { return abortsTotal_; }

    /**
     * Fault injection: abort the current transaction for no
     * architectural reason (millicode must tolerate random aborts).
     * Processed as a transient diagnostic abort — CC2, normal
     * escalation-ladder accounting. No-op outside a transaction.
     * Call between steps, like deliverExternalInterrupt().
     */
    void injectSpuriousAbort();

    /**
     * Livelock-diagnosis snapshot (watchdog bundle): architected
     * position, transactional mode, escalation-ladder state, last
     * abort code, TDB address, and commit/abort totals by reason.
     */
    Json diagnosticJson() const;

    /** CPU id. */
    CpuId id() const { return id_; }

    /** @name Debug facilities @{ */
    debug::PerControls &perControls() { return per_; }
    debug::TdcControl &tdcControl() { return tdc_; }
    /** @} */

    /**
     * Deliver an asynchronous (external) interruption; aborts a
     * transaction in progress. Call between steps.
     */
    void deliverExternalInterrupt();

    /** Drain buffered non-transactional stores to memory. */
    void drainStores();

    /** @name Scheduler interface @{ */
    /** Extra stall (abort penalties, backoff) to apply, then clear. */
    Cycles consumePendingStall();
    /** Add stall cycles before this CPU's next step. */
    void addStall(Cycles cycles) { pendingStall_ += cycles; }
    /** @} */

    /** @name Spin replay (sim::Machine, DESIGN.md §5b) @{ */
    SpinState
    spinState() const
    {
        return {regs_.gr, psw_.ia, psw_.cc, dispatchCredit_};
    }

    /** A hash of spinState(); equal states hash equal. */
    std::uint64_t spinFingerprint() const;

    /** Put the CPU back in @p state (a replayed step's snapshot). */
    void restoreSpinState(const SpinState &state);

    /**
     * True when nothing outside spinState() can change what the next
     * replayable steps do: running outside a transaction, with no
     * pending stall, PER control or event, or rejected access.
     * (Store-cache entries only change by the CPU's own stores and
     * by XIs to it; the machine checks that none covers a line the
     * loop reads.)
     */
    bool spinQuiet() const;

    /**
     * Classify the instruction at the PSW; for a Load, @p line
     * receives the line it reads. Never Load when a page is absent
     * or a line is poisoned.
     */
    SpinStep spinStep(Addr &line) const;

    /** True if the instruction at @p ia is a branch. */
    bool isBranchAt(Addr ia) const;

    /** Count @p n replayed steps as retired instructions. */
    void retireReplayed(std::uint64_t n) { instructions_.inc(n); }
    /** @} */

    /** @name Measurement (MARKB/MARKE pseudo-ops) @{ */
    /** Cycles of each MARKB..MARKE region ("region.cycles"). */
    const Histogram &regionCycles() const { return *regionHist_; }
    /** @} */

    /** @name Operation log (OPLOGB/OPLOGE pseudo-ops) @{ */
    /**
     * Attach (or detach, with nullptr) the sink the OPLOGB/OPLOGE
     * pseudo-ops report to. Without a recorder they are NOPs; with
     * one, recording is free in simulated cycles, so timing is
     * unchanged either way.
     */
    void setOpRecorder(OpRecorder *recorder)
    {
        opRecorder_ = recorder;
    }
    /** @} */

    /** Per-CPU stats ("cpuN.*"): commits, aborts by reason, ... */
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** The gathering store cache, for index-consistency oracles. */
    const GatheringStoreCache &storeCache() const
    {
        return storeCache_;
    }

    /** @name mem::CacheClient @{ */
    mem::XiResponse incomingXi(const mem::XiContext &ctx) override;
    void l1Evicted(Addr line, std::uint8_t flags) override;
    /** @} */

    /** The TDB stored into the prefix area lives here, per CPU. */
    Addr prefixTdbAddr() const;

  private:
    friend class ztx::millicode::MillicodeEngine;

    /** Outcome of executing one instruction. */
    struct ExecResult
    {
        Cycles cost = 1;
        /** False when the access was rejected and must be retried. */
        bool completed = true;
    };

    ExecResult execute(const isa::Program::Slot &slot);
    ExecResult executeTxOp(const isa::Program::Slot &slot);

    /** Effective (ANDed/maxed over the nest) TBEGIN controls. */
    bool effAllowArMod() const;
    bool effAllowFprMod() const;
    std::uint8_t effPifc() const;

    Addr effectiveAddr(const isa::Instruction &inst) const;

    /**
     * Perform the cache/coherence side of a data access spanning
     * [addr, addr+size). Accumulates latency into @p cost.
     * @return false if rejected or the transaction aborted; the
     *         instruction must not complete.
     */
    bool accessLines(Addr addr, unsigned size, bool exclusive,
                     Cycles &cost);

    /** Functional read merging the store cache over memory. */
    std::uint64_t readMerged(Addr addr, unsigned size) const;

    /**
     * MainMemory's storage of @p line through lineRefs_, or nullptr
     * while the line was never written (it reads as zero).
     */
    const std::uint8_t *lineData(Addr line) const;

    /**
     * Access half of every data access: page fault, constrained-TX
     * operand check, then accessLines().
     * @return false if the step cannot complete.
     */
    bool accessData(Addr addr, unsigned size, bool exclusive,
                    Cycles &cost);

    /**
     * Store half of every data store, after its access half: the PER
     * store check, the write into the gathering store cache (which
     * aborts with StoreOverflow when full) and the tx-dirty marks.
     * Stores complete inside their step, so no store-queue entry is
     * ever observable (DESIGN.md §1).
     * @return false if the step cannot complete.
     */
    bool storeData(Addr addr, std::uint64_t value, unsigned size,
                   bool ntstg);

    /**
     * Full load path: accessData(), then readMerged().
     * @param exclusive Fetch with ownership (LGFO store intent, CS).
     * @return The value, or nullopt if the step cannot complete.
     */
    std::optional<std::uint64_t> memLoad(Addr addr, unsigned size,
                                         Cycles &cost,
                                         bool exclusive = false);

    /**
     * Full store path: exclusive accessData(), then storeData().
     * @return false if the step cannot complete.
     */
    bool memStore(Addr addr, std::uint64_t value, unsigned size,
                  bool ntstg, Cycles &cost);

    /** Raise a program-exception condition at the current PSW. */
    void programException(tx::InterruptCode code, Addr addr,
                          bool instruction_fetch, Cycles &cost);

    /** Deliver an (unfiltered) interruption to the OS model. */
    void osInterrupt(tx::InterruptCode code, Addr addr, bool from_tx,
                     bool from_constrained, Cycles &cost);

    /** Route an abort through millicode. */
    void abortTransaction(const AbortContext &ctx);

    /** Begin a transaction (shared TBEGIN/TBEGINC tail). */
    ExecResult beginTransaction(const isa::Program::Slot &slot,
                                bool constrained);

    /** Commit path of an outermost TEND. */
    ExecResult endTransaction();

    /** Handle a constrained-TX rule violation. */
    void constraintViolation(tx::ConstraintViolationKind kind,
                             Cycles &cost);

    /**
     * An access touched a poisoned line (RAS model): abort the
     * transaction (transactional access) or take a machine check
     * with scrub/restart recovery (non-transactional access).
     * @return Always false: the triggering step must not complete.
     */
    bool handlePoisonedAccess(Addr line, Cycles &cost);

    /**
     * Kill-and-restart recovery for unrecoverable data loss: reset
     * the program to its entry point (keeping the GRs the harness
     * pre-seeded) and resume as a fresh workload item.
     */
    void restartWorkload();

    CpuId id_;
    mem::Hierarchy &hier_;
    mem::MainMemory &memory_;
    debug::PageTable &pages_;
    debug::OsModel &os_;
    CpuEnv &env_;
    TmConfig cfg_;
    Rng rng_;

    const isa::Program *program_ = nullptr;
    /**
     * The slot after the one step() last fetched; step() runs it
     * without Program::fetch when psw_.ia is its address (every step
     * but a taken branch, interruption or abort). setProgram()
     * clears it.
     */
    const isa::Program::Slot *nextSlot_ = nullptr;
    isa::RegisterFile regs_;
    isa::Psw psw_;
    bool halted_ = false;

    GatheringStoreCache storeCache_;

    /**
     * Direct-mapped by line number: MainMemory line storage this CPU
     * has loaded from. A line's storage never moves or is freed, so
     * an entry stays valid and sees every later write; an unwritten
     * line is not entered.
     */
    struct LineRef
    {
        Addr line = ~Addr(0);
        const std::uint8_t *data = nullptr;
    };
    mutable std::array<LineRef, 16> lineRefs_{};

    /**
     * L1 slots of the lines the last accessLines() fetched, first
     * line first (a data access spans at most two lines); storeData()
     * marks tx-dirty through them.
     */
    std::array<std::size_t, 2> accessSlots_{};

    /** @name Transaction state @{ */
    struct TxLevel
    {
        bool allowArMod;
        bool allowFprMod;
        std::uint8_t pifc;
    };
    unsigned txDepth_ = 0;
    bool constrained_ = false;
    std::vector<TxLevel> txLevels_;
    std::array<std::uint64_t, isa::numGrs> backupGrs_{};
    std::uint8_t savedGrsm_ = 0;
    Addr tbeginAddr_ = 0;
    std::uint8_t tbeginLength_ = 0;
    bool tdbValid_ = false;
    Addr tdbAddr_ = 0;
    tx::ConstraintChecker checker_;
    /** @} */

    /** @name Stiff-arm / hang-avoidance state @{ */
    unsigned rejectsSinceCompletion_ = 0;
    bool stalledOnReject_ = false;
    /** @} */

    /** Remaining same-cycle slots of the superscalar window. */
    unsigned dispatchCredit_ = 0;

    /** Set by any abort that happens inside this CPU's own step. */
    bool abortedDuringStep_ = false;

    /** Commits + region closes + halt; see progressEvents(). */
    std::uint64_t progressEvents_ = 0;

    /** Aborts of any reason; see abortsTotal(). */
    std::uint64_t abortsTotal_ = 0;

    /** @name Millicode state @{ */
    unsigned constrainedAbortCount_ = 0;
    bool soloHeld_ = false;
    /** Escalation: suppress speculative over-marking on retries. */
    bool speculationReduced_ = false;
    std::uint64_t lastAbortCode_ = 0;
    /** @} */

    debug::PerControls per_;
    debug::TdcControl tdc_;

    Cycles pendingStall_ = 0;

    /** @name Region measurement @{ */
    bool regionOpen_ = false;
    Cycles regionStart_ = 0;
    /** Latency tail of the measured regions (64-cycle buckets). */
    Histogram *regionHist_ = nullptr;
    /** @} */

    /** @name Pending after-completion PER event @{ */
    bool perPending_ = false;
    Addr perPendingAddr_ = 0;
    /** @} */

    /** Op-log sink for OPLOGB/OPLOGE; nullptr when disabled. */
    OpRecorder *opRecorder_ = nullptr;
    /**
     * An OPLOGV executed inside the current transaction: the
     * outermost TEND reports the region's read/write line footprint
     * to opRecorder_ before clearing the TX marks. Cleared on commit
     * and on abort (millicode), so only committed footprints are
     * ever recorded.
     */
    bool versionArmed_ = false;

    StatGroup stats_;
    /** @name Per-step, per-transaction and XI counters of stats_ @{ */
    CounterHandle instructions_{stats_, "instructions"};
    CounterHandle txBegins_{stats_, "tx.begins"};
    CounterHandle txCommits_{stats_, "tx.commits"};
    CounterHandle txAborts_{stats_, "tx.aborts"};
    CounterHandle txOvermarks_{stats_, "tx.overmarks"};
    CounterHandle fetchRejected_{stats_, "fetch.rejected"};
    CounterHandle xiReceived_{stats_, "xi.received"};
    CounterHandle xiPoisonedSeen_{stats_, "xi.poisoned_seen"};
    CounterHandle xiRejectsSent_{stats_, "xi.rejects_sent"};
    CounterHandle txReadEvicted_{stats_, "l1.tx_read_evicted"};
    /** @} */
    /** @name Millicode abort-path counters of stats_ @{ */
    CounterHandle constrainedDelays_{stats_,
                                     "millicode.constrained_delays"};
    CounterHandle speculationReductions_{
        stats_, "millicode.speculation_reduced"};
    CounterHandle soloRequests_{stats_, "millicode.solo_requests"};
    CounterHandle soloReleases_{stats_, "millicode.solo_releases"};
    CounterHandle ppaDelays_{stats_, "millicode.ppa"};
    /**
     * "tx.abort.<reason>" by tx::abortReasonSlot(), each registered
     * on that reason's first abort (as a CounterHandle would be).
     */
    std::array<Counter *, tx::abortReasonSlots> abortsByReason_{};
    /** @} */
};

} // namespace ztx::core

#endif // ZTX_CORE_CPU_HH
