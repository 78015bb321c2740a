/**
 * @file
 * Transactional-memory implementation parameters and the environment
 * interface the CPU model uses to reach machine-level services.
 *
 * Cycle costs marked [cal] are calibration constants (not stated in
 * the paper); their choice and sensitivity are discussed in
 * EXPERIMENTS.md.
 */

#ifndef ZTX_CORE_CONFIG_HH
#define ZTX_CORE_CONFIG_HH

#include <cstdint>

#include "common/types.hh"

namespace ztx::core {

/**
 * TX facility and cost-model configuration of one CPU. The settable
 * fields are the ones a study varies; the static constexpr members
 * are fixed architecture limits and [cal] constants, read through
 * the same `cfg.x` syntax.
 */
struct TmConfig
{
    /** Architected maximum transaction nesting depth. */
    static constexpr unsigned maxNestingDepth = 16;

    /** Gathering store cache entries (zEC12: 64 x 128 bytes). */
    unsigned storeCacheEntries = 64;

    /**
     * XI-reject hang avoidance: abort the transaction after this
     * many rejects issued while stalled on a rejected access of our
     * own (the deadlock-cycle signature). Low values resolve
     * hold-and-wait deadlocks quickly; per-CPU jitter breaks
     * symmetric cycles.
     */
    static constexpr unsigned xiRejectAbortThreshold = 5;

    /** @name Cycle costs @{ */
    static constexpr Cycles tbeginBaseCost = 6; ///< [cal] TBEGIN overhead
    static constexpr Cycles tbeginPerPairCost = 1; ///< [cal] per saved GR pair
    static constexpr Cycles tendCost = 4; ///< [cal] outermost TEND
    static constexpr Cycles casExtraCost = 11; ///< [cal] CS serialization
    /**
     * [cal] Charge for an L1-hit storage access. The L1 use latency
     * is 4 cycles, but the zEC12 pipeline hides most of it for the
     * straight-line sequences the workloads run; charging the full
     * latency would overstate simple-instruction path lengths.
     */
    static constexpr Cycles l1HitCharge = 2;
    /**
     * [cal] Superscalar width approximation: this many consecutive
     * simple (1-cycle) instructions complete per cycle, modelling
     * the 3-per-cycle decode of the zEC12 core.
     */
    static constexpr unsigned dispatchWidth = 3;
    /** [cal] Abort subroutine. */
    static constexpr Cycles abortMillicodeCost = 140;
    static constexpr Cycles tdbStoreCost = 60; ///< [cal] TDB formatting/store
    static constexpr Cycles osInterruptCost = 800; ///< [cal] OS round trip
    /** @} */

    /** @name PPA (Perform Processor Assist) backoff @{ */
    Cycles ppaBaseDelay = 24;   ///< [cal] delay scale
    unsigned ppaMaxShift = 6;   ///< cap on exponential growth
    /** @} */

    /** @name Constrained-transaction millicode escalation @{ */
    /** Aborts before random exponential delays start. */
    static constexpr unsigned constrainedDelayThreshold = 1;
    static constexpr Cycles constrainedDelayBase = 40; ///< [cal] delay scale
    static constexpr unsigned constrainedDelayMaxShift = 2;
    /** Aborts before the last-resort broadcast-stop (solo mode). */
    static constexpr unsigned constrainedSoloThreshold = 2;
    /** Constrained aborts before speculation is reduced. */
    unsigned constrainedSpeculationThreshold = 2;
    /** @} */

    /**
     * Speculative over-marking (paper §III.C): the tx-read bit is
     * set at load *execution*, so wrong-path/prefetch loads can mark
     * lines the transaction never architecturally uses. Modelled as
     * a per-load probability of additionally fetching and marking
     * the sequentially next line. Millicode's constrained-retry
     * escalation "reduc[es] the amount of speculative execution" by
     * suppressing it after repeated aborts. Default 0 (a core
     * without wrong-path pollution); the over-marking ablation
     * turns it on.
     */
    double speculativeOvermarkProb = 0.0;

    /** Enable the L1 LRU-extension scheme (paper §III.C). */
    bool lruExtensionEnabled = true;

    /** Enable stiff-arming (XI rejection) for conflicting XIs. */
    bool stiffArmEnabled = true;
};

/**
 * Machine services a CPU can call into: the global clock and the
 * millicode "broadcast to other CPUs to stop all conflicting work"
 * last resort for constrained transactions (paper §III.E).
 */
class CpuEnv
{
  public:
    virtual ~CpuEnv() = default;

    /** Current global cycle. */
    virtual Cycles now() const = 0;

    /**
     * Ask the machine to stop scheduling every other CPU until
     * releaseSolo() — millicode's guarantee of constrained-TX
     * success. Machines serialize competing requests.
     */
    virtual void requestSolo(CpuId cpu) = 0;

    /** Resume normal scheduling. */
    virtual void releaseSolo(CpuId cpu) = 0;

    /** CPU currently holding solo mode, or invalidCpu. */
    virtual CpuId soloHolder() const = 0;

    /**
     * Forward-progress tick: the CPU reports one unit of progress
     * (transaction commit, non-TX region close, halt). Environments
     * with a watchdog accumulate these into a monotonic counter so
     * the per-step O(numCpus) progress sum is unnecessary. Default
     * is a no-op for environments without a watchdog.
     */
    virtual void noteProgress(CpuId cpu) { (void)cpu; }

    /**
     * An XI reached @p cpu. A machine that replays the CPU's spin
     * loop instead of stepping it catches the CPU up to the current
     * step before the XI takes effect. Default is a no-op.
     */
    virtual void noteXi(CpuId cpu) { (void)cpu; }
};

} // namespace ztx::core

#endif // ZTX_CORE_CONFIG_HH
