/**
 * @file
 * Turns a FaultPlan into concrete adversarial events against a live
 * machine. The Machine scheduler calls beforeStep() for the CPU
 * about to execute; the injector draws its per-kind Bernoulli rates
 * and fires any scenario steps whose trigger holds, then the step
 * runs into whatever hostile state was created. All randomness comes
 * from per-CPU ztx::Rng streams derived from the plan/machine seed,
 * so a chaotic run is a pure function of (program, config, seed)
 * just like a benign one; CPU i's draws depend only on CPU i's step
 * sequence.
 *
 * The injector also implements mem::XiDelayProbe: when registered
 * with the hierarchy it can stretch individual XI response times,
 * modelling slow remote snoop responses without violating coherence
 * (the delay is pure latency, the protocol outcome is unchanged).
 *
 * Fairness rule: XI storms never target the CPU holding solo mode.
 * Broadcast-stop means *all conflicting work* stops (paper §III.E)
 * — an adversary that could still snipe the solo holder's footprint
 * would break the eventual-success guarantee by construction rather
 * than by finding a real bug.
 */

#ifndef ZTX_INJECT_FAULT_INJECTOR_HH
#define ZTX_INJECT_FAULT_INJECTOR_HH

#include <array>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "inject/fault_plan.hh"
#include "mem/xi.hh"

namespace ztx::core {
class Cpu;
class CpuEnv;
} // namespace ztx::core

namespace ztx::mem {
class Hierarchy;
} // namespace ztx::mem

namespace ztx::inject {

/** Drives a FaultPlan against one machine. */
class FaultInjector : public mem::XiDelayProbe
{
  public:
    /**
     * @param plan The campaign to run (copied).
     * @param machine_seed Used to derive the RNG seed when the plan
     *        leaves its own seed at 0.
     * @param hier The machine's hierarchy (XI/capacity faults).
     * @param env Machine services (solo-holder queries).
     */
    FaultInjector(const FaultPlan &plan, std::uint64_t machine_seed,
                  mem::Hierarchy &hier, const core::CpuEnv &env);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Register a CPU; its id indexes the injector's tables. */
    void attachCpu(core::Cpu &cpu);

    /**
     * Called by the scheduler right before CPU @p id steps at
     * global cycle @p now: expires due capacity squeezes, draws the
     * probabilistic faults, and fires due scenario steps.
     */
    void beforeStep(CpuId id, Cycles now);

    /** mem::XiDelayProbe: extra cycles for one XI response. */
    Cycles xiDelay(mem::XiKind kind, CpuId target,
                   CpuId requester) override;

    /** The plan being executed. */
    const FaultPlan &plan() const { return plan_; }

    /**
     * Per-kind fire counts as a JSON object — one key per FaultKind
     * name, read from the kind's `*.fired` counter and zero-filled
     * so the shape is plan-independent. Goes into watchdog
     * diagnosis bundles.
     */
    Json firedCountsJson() const;

    /**
     * The last few fired faults (across all CPUs, merged in
     * (cycle, cpu) order) as a JSON array. Watchdog bundles use
     * this to show what the injector did right before a stall.
     */
    Json recentFiresJson() const;

    /** Injection activity ("inject.*" counters). */
    const StatGroup &stats() const { return stats_; }

  private:
    /**
     * Apply one fault. @p line / @p poison_memory are the operands
     * of the line-addressed kinds (TargetedConflict, PoisonLine);
     * a TargetedConflict with @p target == invalidCpu resolves its
     * victim from the coherence directory (owner, else the lowest-id
     * sharer).
     */
    void apply(FaultKind kind, CpuId target, Cycles now,
               Addr line = 0, bool poison_memory = false);

    /**
     * Evaluate every armed scenario step against current machine
     * state and fire the due ones.
     */
    void evaluateScenario(Cycles now);

    /** Record a fired fault into the target's recent-fire ring. */
    void recordFire(FaultKind kind, CpuId target, Cycles now,
                    Addr line);

    /** One fired fault, for watchdog diagnosis bundles. */
    struct FiredFault
    {
        Cycles at = 0;
        FaultKind kind = FaultKind::SpuriousAbort;
        CpuId target = invalidCpu;
        Addr line = 0;
        /** Per-ring monotonic index (merge tie-break). */
        std::uint64_t seq = 0;
    };

    /** Fires recorded per ring (watchdog bundles keep this many). */
    static constexpr std::size_t recentDepth = 8;

    /** Per-CPU recent-fire ring. */
    struct RecentRing
    {
        std::array<FiredFault, recentDepth> slots{};
        std::uint64_t n = 0;
    };

    /** Firing bookkeeping of one scenario step. */
    struct ScenarioState
    {
        std::uint64_t fires = 0;
        Cycles lastFire = 0;
        bool done = false;
    };

    FaultPlan plan_;
    mem::Hierarchy &hier_;
    const core::CpuEnv &env_;
    std::vector<core::Cpu *> cpus_;
    /** Per-CPU cycle at which a squeeze expires; 0 = not squeezed. */
    std::vector<Cycles> squeezeUntil_;
    std::uint64_t baseSeed_;
    /** Per-CPU Bernoulli streams (rates), indexed by CpuId. */
    std::vector<Rng> cpuRng_;
    /** Per-CPU streams for XI-storm line picks, indexed by target. */
    std::vector<Rng> stormRng_;
    /**
     * Per-CPU streams for XI response delays, indexed by the XI
     * target. XIs aimed at unattached fabric agents (the channel
     * subsystem) draw from rng_ instead.
     */
    std::vector<Rng> delayRng_;
    /** Per-CPU streams for rate-driven poison line picks. */
    std::vector<Rng> poisonRng_;
    /** Per-step scenario bookkeeping, parallel to plan_.scenario. */
    std::vector<ScenarioState> scen_;
    /** abortsTotal() snapshots from the last scenario evaluation. */
    std::vector<std::uint64_t> lastAborts_;
    std::vector<RecentRing> recent_;
    /** XI delays for unattached targets. */
    Rng rng_;
    StatGroup stats_{"inject"};
    /** @name Counters, declared in stats_ @{ */
    /** Fires by FaultKind ("<kind>.fired"); recordFire() counts. */
    std::array<Counter, faultKindCount> fired_;
    Counter squeezeRestored_{stats_, "squeeze.restored"};
    Counter scenarioFired_{stats_, "scenario.fired"};
    Counter scenarioAssertFailed_{stats_, "scenario.assert_failed"};
    Counter xiStormSuppressedSolo_{stats_, "xi_storm.suppressed_solo"};
    Counter xiStormLinesTaken_{stats_, "xi_storm.lines_taken"};
    Counter xiStormLinesDefended_{stats_, "xi_storm.lines_defended"};
    Counter conflictNoHolder_{stats_, "targeted_conflict.no_holder"};
    Counter conflictSolo_{stats_, "targeted_conflict.suppressed_solo"};
    Counter conflictTaken_{stats_, "targeted_conflict.taken"};
    Counter conflictDefended_{stats_, "targeted_conflict.defended"};
    Counter poisonSuppressedSolo_{stats_, "poison_line.suppressed_solo"};
    Counter poisonSkippedIdle_{stats_, "poison_line.skipped_idle"};
    /** @} */
};

} // namespace ztx::inject

#endif // ZTX_INJECT_FAULT_INJECTOR_HH
