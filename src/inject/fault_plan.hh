/**
 * @file
 * Declarative description of a fault-injection campaign.
 *
 * A FaultPlan names *what* chaos to create and *how much* of it;
 * the FaultInjector (fault_injector.hh) turns the plan into concrete
 * adversarial events against a running machine. Plans are plain data
 * so a MachineConfig can embed one, a bench sweep can scale one, and
 * a JSON report can archive one. All randomness is drawn from one
 * ztx::Rng derived from the plan/machine seed, so a chaotic run
 * replays bit-identically.
 *
 * The fault kinds mirror the paper's environmental abort groups
 * (tx/abort.hh): spurious millicode-visible aborts, conflict XIs,
 * cache-capacity loss, and asynchronous interruptions — plus XI
 * response delay, which perturbs timing without aborting anything
 * (see DESIGN.md "Fault injection & chaos testing").
 */

#ifndef ZTX_INJECT_FAULT_PLAN_HH
#define ZTX_INJECT_FAULT_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"

namespace ztx::inject {

/** What kind of adversity to apply. */
enum class FaultKind : std::uint8_t
{
    /** Abort the target's transaction for no architectural reason. */
    SpuriousAbort,
    /** Burst of conflict XIs aimed at the target's tx footprint. */
    XiStorm,
    /** Temporarily shrink the target's effective L1/L2 ways. */
    CapacitySqueeze,
    /** Burst of asynchronous (external) interruptions. */
    InterruptStorm,
    /** One-shot marker for delayed-XI campaigns (rate-driven). */
    DelayedXi,
    /**
     * One conflict XI aimed at a *named* line instead of a sample
     * of the victim's footprint: the minimal-repro adversary for
     * directed escalation-ladder tests.
     */
    TargetedConflict,
    /** Poison a line's cached (or memory) image (RAS model). */
    PoisonLine,
};

/** Number of FaultKind enumerators (fixed-size tally arrays). */
inline constexpr std::size_t faultKindCount = 7;

/** Stable name for stats keys and reports. */
const char *faultKindName(FaultKind kind);

/** A fault pinned to a cycle point (deterministic scenarios). */
struct ScheduledFault
{
    /** Global cycle at (or after) which the fault fires. */
    Cycles at = 0;
    FaultKind kind = FaultKind::SpuriousAbort;
    /**
     * Victim CPU. invalidCpu means "no explicit victim": the fault
     * fires from the injector's beforeStep() and the victim is the
     * CPU about to step (DESIGN.md §5c). Line-addressed kinds
     * resolve their victim from the directory instead. Scenario
     * steps (below) resolve untargeted victims by machine state.
     */
    CpuId target = invalidCpu;
    /** Line operand (TargetedConflict, PoisonLine); 0 for others. */
    Addr line = 0;
    /** PoisonLine: also corrupt the memory image (no scrub source). */
    bool poisonMemory = false;
};

/** What arms a ScenarioStep (the scenario trigger grammar). */
enum class TriggerKind : std::uint8_t
{
    /** Fire at cycle `at` (optionally repeating every `period`). */
    AtCycle,
    /** Fire on the watched CPU's `count`-th transaction abort. */
    OnAbort,
    /** Fire when `line` enters some CPU's transactional footprint. */
    OnFootprint,
    /** Fire `at` cycles after step `after` fired. */
    AfterStep,
};

/** Stable trigger name for reports. */
const char *triggerKindName(TriggerKind kind);

/** Per-step assertion, checked when the step fires. */
enum class StepAssert : std::uint8_t
{
    None,
    /** The resolved target CPU is in transactional-execution mode. */
    TargetInTx,
    /** The resolved target CPU is not in a transaction. */
    TargetNotInTx,
    /** `line` is in the resolved target's tx footprint. */
    LineInTargetFootprint,
};

/** Stable assertion name for reports. */
const char *stepAssertName(StepAssert check);

/**
 * One step of a scripted fault scenario: a trigger, the fault to
 * apply when it fires, and an optional assertion about machine
 * state at fire time. Scenarios are evaluated before every
 * scheduler step, so a run replays bit-identically per seed;
 * triggers are observations, not interrupts.
 */
struct ScenarioStep
{
    TriggerKind trigger = TriggerKind::AtCycle;
    /** AtCycle: fire cycle. AfterStep: delay after the prereq. */
    Cycles at = 0;
    /** AtCycle only: re-fire period (0 = once); `repeat` caps it. */
    Cycles period = 0;
    /** AtCycle + period: total fires (>= 1). */
    unsigned repeat = 1;
    /** OnAbort: CPU whose aborts count; invalidCpu = any CPU. */
    CpuId watch = invalidCpu;
    /** OnAbort: fire on the count-th abort (1 = first). */
    std::uint64_t count = 1;
    /** OnFootprint watch line; also the fault's line operand. */
    Addr line = 0;
    /** AfterStep: index of the prerequisite step (must be lower). */
    std::size_t after = 0;

    /** Fault applied when the trigger fires. */
    FaultKind kind = FaultKind::SpuriousAbort;
    /**
     * Victim CPU; invalidCpu resolves from machine state at fire
     * time: OnAbort takes the aborting CPU, OnFootprint the
     * (lowest-id) CPU holding the line, everything else the
     * lowest-id CPU holding `line` in its footprint, falling back
     * to CPU 0.
     */
    CpuId target = invalidCpu;
    /** PoisonLine: also corrupt the memory image. */
    bool poisonMemory = false;

    /** Checked (counted + warned, not fatal) at fire time. */
    StepAssert check = StepAssert::None;
};

/** A complete injection campaign: per-step rates plus a schedule. */
struct FaultPlan
{
    /**
     * @name Per-step Bernoulli rates
     * Probability that the named fault hits the CPU about to step,
     * evaluated once per scheduler step. 0 disables the kind.
     * @{
     */
    double spuriousAbortRate = 0.0;
    double xiStormRate = 0.0;
    double capacitySqueezeRate = 0.0;
    double interruptStormRate = 0.0;
    /** Probability that any one XI response is delayed. */
    double delayedXiRate = 0.0;
    /** Probability of a conflict XI aimed at `targetedLine`. */
    double targetedConflictRate = 0.0;
    /** Probability of poisoning a line of the stepper's footprint. */
    double poisonRate = 0.0;
    /** @} */

    /** @name Fault shape parameters @{ */
    /** XIs per storm (sampled from the victim's tx footprint). */
    unsigned xiStormBurst = 4;
    /** Effective L1 ways while squeezed (0 keeps the geometry). */
    unsigned squeezeL1Ways = 1;
    /** Effective L2 ways while squeezed (0 keeps the geometry). */
    unsigned squeezeL2Ways = 2;
    /** Cycles a capacity squeeze lasts before ways are restored. */
    Cycles squeezeDuration = 4000;
    /** External interruptions per storm. */
    unsigned interruptBurst = 2;
    /** Maximum extra cycles added to a delayed XI response. */
    Cycles xiDelayMax = 256;
    /** Line rate-driven TargetedConflict faults aim at. */
    Addr targetedLine = 0;
    /** @} */

    /** Cycle-pinned faults, applied in order of appearance. */
    std::vector<ScheduledFault> schedule;

    /** Scripted trigger-driven steps (see ScenarioStep). */
    std::vector<ScenarioStep> scenario;

    /**
     * Seed of the injector's private RNG; 0 derives one from the
     * machine seed (the common case — one seed reproduces the whole
     * chaotic run).
     */
    std::uint64_t seed = 0;

    /** True when the plan can produce any fault at all. */
    bool
    enabled() const
    {
        return spuriousAbortRate > 0 || xiStormRate > 0 ||
               capacitySqueezeRate > 0 || interruptStormRate > 0 ||
               delayedXiRate > 0 || targetedConflictRate > 0 ||
               poisonRate > 0 || !schedule.empty() ||
               !scenario.empty();
    }
};

/** @p plan as a JSON object (report/stats metadata). */
Json faultPlanJson(const FaultPlan &plan);

} // namespace ztx::inject

#endif // ZTX_INJECT_FAULT_PLAN_HH
