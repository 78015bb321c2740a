/**
 * @file
 * Exhaustive-interleaving driver for litmus tests: stateless model
 * checking over the deterministic simulator.
 *
 * The enumerator performs a DFS over *decision prefixes*. Each
 * explored schedule builds a fresh machine (same compiled test,
 * same seed), installs an inject::ScheduleSteer, and replays a
 * vector of choice indices: at every point where more than one CPU
 * has a shared-visible next instruction (compile.hh visibleNext),
 * the steer consults the prefix — replaying recorded choices, then
 * extending greedily with choice 0. After the run it backtracks to
 * the deepest decision with an unexplored alternative. Because the
 * simulator is deterministic given the choice sequence, re-running
 * a prefix reproduces the identical runnable sets, so the recorded
 * frontier is exact.
 *
 * Reduction rule (soundness in DESIGN.md §5d): CPUs whose next
 * instruction is invisible (private registers, branches, oplog
 * brackets, halt) are stepped eagerly, lowest id first, without
 * branching — those steps commute with every other thread's next
 * step, so no reachable final state is lost. Termination comes from
 * the bounded tx retry budget, the constrained-tx escalation ladder
 * (solo mode collapses the runnable set to one CPU), and the
 * stiff-arm rejection threshold; a per-run step cap and a schedule
 * cap backstop both, and hitting either forces the verdict to
 * `frontier-capped` — never `ok`.
 *
 * Outcome semantics: a terminal state is the final memory value of
 * every location plus each thread's observed registers and tx `ok`
 * flag. A state matching any `forbidden` conjunction — or, when an
 * explicit `allowed` set is given, matching none of it — is a
 * violation; the first one captures a witness (the visible-step
 * trace plus the OPLOG history) for debug rendering.
 */

#ifndef ZTX_LITMUS_ENUMERATE_HH
#define ZTX_LITMUS_ENUMERATE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"
#include "litmus/compile.hh"

namespace ztx::litmus {

/** Enumeration bounds and machine knobs. */
struct EnumOptions
{
    /** Machine seed. Affects cycle values only, never verdicts
     *  (the corpus avoids the one seed-sensitive trigger,
     *  at_cycle). */
    std::uint64_t seed = 1;
    /** Frontier cap: maximum schedules to explore. */
    std::uint64_t maxSchedules = 200000;
    /** Frontier cap: maximum steps within one schedule. */
    std::uint64_t maxStepsPerRun = 100000;
};

/** One visible step of an explored schedule (witness trace). */
struct TraceStep
{
    CpuId cpu = 0;
    Addr ia = 0;         ///< instruction address (disassembles)
    Cycles cycle = 0;    ///< seed-dependent; not part of verdicts
    bool decision = false; ///< more than one visible candidate
};

/** One OPLOG event (invoke or response) of a witness run. */
struct OpEvent
{
    CpuId cpu = 0;
    Cycles at = 0;
    bool invoke = false;
    std::uint32_t code = 0;     ///< thread << 8 | statement
    std::uint64_t value = 0;    ///< response: observed result
};

/** The violating schedule captured for debug rendering. */
struct Witness
{
    std::uint64_t schedule = 0; ///< index of the violating run
    std::string outcome;
    std::vector<TraceStep> steps;
    std::vector<OpEvent> events;
};

/** Aggregate info per distinct terminal state. */
struct OutcomeInfo
{
    std::uint64_t count = 0;
    bool ok = true; ///< false: forbidden or outside the allowed set
};

/** Everything an enumeration produced. */
struct EnumResult
{
    /** "ok" | "violation" | "frontier-capped". */
    std::string verdict;
    bool capped = false;
    std::string capReason; ///< "schedules" | "steps" | ""
    std::uint64_t schedulesExplored = 0;
    std::uint64_t decisionsTotal = 0;
    std::uint64_t stepsTotal = 0;
    std::uint64_t maxDepth = 0; ///< deepest decision prefix
    /** Distinct terminal states (ordered -> deterministic JSON). */
    std::map<std::string, OutcomeInfo> outcomes;
    /** Violating states in discovery order. */
    std::vector<std::string> violations;
    std::optional<Witness> witness;

    /** @name Cross-run machine stat sums @{ */
    std::uint64_t commitsTotal = 0;
    std::uint64_t abortsTotal = 0;
    std::uint64_t scenarioFiredTotal = 0;
    /** Minimum scenario fires in any single run (~0ULL when no
     *  runs): the OnFootprint regression checks this is >= 1, i.e.
     *  the directed fault fired inside *every* enumerated
     *  schedule. */
    std::uint64_t scenarioFiredMin = ~std::uint64_t(0);
    std::uint64_t simCycles = 0;
    std::uint64_t instructions = 0;
    /** @} */
};

/** Exhaustively enumerate @p compiled under @p opt. */
EnumResult enumerate(const Compiled &compiled,
                     const EnumOptions &opt = {});

/** Randomized (chaos-style) runs for the property test. */
struct RandomResult
{
    std::uint64_t runs = 0;       ///< completed (uncapped) runs
    std::uint64_t cappedRuns = 0;
    std::map<std::string, std::uint64_t> outcomes;
};

/**
 * Run @p runs random-steer schedules (uniform choice among visible
 * candidates, seeded seed0, seed0+1, ...) and tally terminal
 * states. Random outcomes must be a subset of the exhaustive set.
 */
RandomResult runRandom(const Compiled &compiled, unsigned runs,
                       std::uint64_t seed0,
                       const EnumOptions &opt = {});

/**
 * @p res as a JSON object. Deliberately excludes every
 * seed-dependent quantity (cycle values, the witness trace), so the
 * document is byte-identical across seeds for any test without
 * at_cycle faults — the directed-matrix contract.
 */
Json enumResultJson(const Compiled &compiled, const EnumResult &res);

} // namespace ztx::litmus

#endif // ZTX_LITMUS_ENUMERATE_HH
