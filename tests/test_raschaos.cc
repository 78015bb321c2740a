/**
 * @file
 * RAS / scripted-chaos layer (src/inject + the poison model in
 * src/mem): line-poisoning injection, propagation and recovery
 * (scrub vs workload restart), the abort-before-commit guarantee
 * for poisoned transactional footprints, the scenario engine's
 * trigger grammar and step assertions, targeted conflict injection
 * driving the millicode escalation ladder, the pinned semantics of
 * untargeted scheduled faults, and bit-identical replay of full RAS
 * chaos plans.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "debug/os_model.hh"
#include "inject/fault_injector.hh"
#include "inject/fault_plan.hh"
#include "mem/hierarchy.hh"
#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using isa::Assembler;
using isa::Program;

/** Constrained increment of a shared counter, @p iterations times. */
Program
constrainedIncrementProgram(unsigned iterations)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(8, std::int64_t(iterations));
    as.label("loop");
    as.tbeginc(0xFF);
    as.lg(1, 9);
    as.ahi(1, 1);
    as.stg(1, 9);
    as.tend();
    as.brct(8, "loop");
    as.halt();
    return as.finish();
}

/** One non-transactional load of the shared counter. */
Program
plainLoadProgram()
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lg(1, 9);
    as.halt();
    return as.finish();
}

/** Sum of one per-CPU counter over the whole machine. */
std::uint64_t
cpuCounterSum(sim::Machine &m, const char *name)
{
    std::uint64_t sum = 0;
    for (unsigned i = 0; i < m.numCpus(); ++i)
        sum += m.cpu(i).stats().counter(name).value();
    return sum;
}

/** An injector counter's value (0 when never registered). */
std::uint64_t
injectCounter(sim::Machine &m, const std::string &name)
{
    const auto &counters = m.injector()->stats().counters();
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second.value();
}

// ---------------------------------------------------------------
// Poison state machine on the hierarchy itself.
// ---------------------------------------------------------------

TEST(Poison, CachedPoisonScrubsClean)
{
    sim::Machine m(smallConfig(1));
    auto &h = m.hierarchy();
    EXPECT_FALSE(h.anyPoisoned());

    h.poisonLine(dataBase + 17, false); // any byte poisons its line
    EXPECT_TRUE(h.anyPoisoned());
    EXPECT_TRUE(h.poisonedCached(dataBase));
    EXPECT_FALSE(h.poisonedMemory(dataBase));
    EXPECT_EQ(h.poisonState(dataBase), mem::Hierarchy::poisonCached);

    // A clean copy exists in memory: the scrub succeeds.
    EXPECT_TRUE(h.scrubLine(dataBase));
    EXPECT_FALSE(h.anyPoisoned());
    EXPECT_EQ(h.poisonState(dataBase), 0u);
    // Scrubbing an unpoisoned line is vacuously successful.
    EXPECT_TRUE(h.scrubLine(dataBase));
}

TEST(Poison, MemorySidePoisonNeedsReload)
{
    sim::Machine m(smallConfig(1));
    auto &h = m.hierarchy();

    h.poisonLine(dataBase, true);
    EXPECT_TRUE(h.poisonedCached(dataBase));
    EXPECT_TRUE(h.poisonedMemory(dataBase));

    // No clean copy anywhere: the scrub must refuse.
    EXPECT_FALSE(h.scrubLine(dataBase));
    EXPECT_TRUE(h.anyPoisoned());

    // Only a reload (fresh data after a workload restart) clears it.
    h.reloadLine(dataBase);
    EXPECT_FALSE(h.anyPoisoned());
    EXPECT_EQ(h.poisonState(dataBase), 0u);
}

// ---------------------------------------------------------------
// Recovery semantics through a running CPU.
// ---------------------------------------------------------------

TEST(Poison, TransactionalFetchAbortsBeforeCommit)
{
    // The acceptance property: a transaction whose footprint touches
    // a poisoned line always aborts before any commit — poisoned
    // data is never silently committed.
    const Program p = constrainedIncrementProgram(10);
    sim::MachineConfig cfg = smallConfig(1);
    sim::Machine m(cfg);
    m.hierarchy().poisonLine(dataBase, false);
    m.setProgram(0, &p);
    m.run();

    ASSERT_TRUE(m.allHalted());
    // The poisoned access aborted, the machine check scrubbed the
    // line, and the retry went on to commit every increment: no
    // increment was lost to — or computed from — poisoned data.
    EXPECT_EQ(m.peekMem(dataBase, 8), 10u);
    EXPECT_GE(m.cpu(0).stats()
                  .counter("tx.abort.data-poisoned").value(), 1u);
    EXPECT_GE(m.cpu(0).stats().counter("machine_checks").value(),
              1u);
    EXPECT_EQ(m.cpu(0).stats().counter("workload_restarts").value(),
              0u);
    EXPECT_FALSE(m.hierarchy().anyPoisoned());

    ASSERT_FALSE(m.os().machineCheckRecords().empty());
    const auto &rec = m.os().machineCheckRecords().front();
    EXPECT_TRUE(rec.fromTx);
    EXPECT_TRUE(rec.scrubbed);
    EXPECT_EQ(rec.cpu, 0u);
    EXPECT_EQ(rec.line, Addr(dataBase));
}

TEST(Poison, NonTxAccessMachineChecksAndResumes)
{
    const Program p = plainLoadProgram();
    sim::MachineConfig cfg = smallConfig(1);
    sim::Machine m(cfg);
    m.hierarchy().poisonLine(dataBase, false);
    m.setProgram(0, &p);
    m.run();

    ASSERT_TRUE(m.allHalted());
    EXPECT_EQ(m.cpu(0).stats().counter("machine_checks").value(),
              1u);
    EXPECT_EQ(m.cpu(0).stats().counter("workload_restarts").value(),
              0u);
    ASSERT_EQ(m.os().machineCheckRecords().size(), 1u);
    EXPECT_FALSE(m.os().machineCheckRecords()[0].fromTx);
    EXPECT_TRUE(m.os().machineCheckRecords()[0].scrubbed);
}

TEST(Poison, MemorySidePoisonRestartsWorkload)
{
    // Memory image corrupt too: no refresh source, so the OS kills
    // and restarts the workload item. The restarted run starts from
    // the program entry with reloaded (modelled-fresh) data and
    // completes normally.
    const Program p = constrainedIncrementProgram(5);
    sim::MachineConfig cfg = smallConfig(1);
    sim::Machine m(cfg);
    m.hierarchy().poisonLine(dataBase, true);
    m.setProgram(0, &p);
    m.run();

    ASSERT_TRUE(m.allHalted());
    EXPECT_EQ(m.peekMem(dataBase, 8), 5u);
    EXPECT_EQ(m.cpu(0).stats().counter("workload_restarts").value(),
              1u);
    EXPECT_EQ(m.os().stats().counter("machine_check.restarts")
                  .value(), 1u);
    EXPECT_FALSE(m.hierarchy().anyPoisoned());
}

TEST(Poison, MidTransactionPoisonCaughtAtCommit)
{
    // Poison lands while the line already sits in a transactional
    // footprint (OnFootprint trigger): the access-time check missed
    // it, so the commit-time sweep must catch it — the transaction
    // aborts and nothing poisoned commits.
    inject::FaultPlan plan;
    inject::ScenarioStep s;
    s.trigger = inject::TriggerKind::OnFootprint;
    s.line = dataBase;
    s.kind = inject::FaultKind::PoisonLine;
    plan.scenario.push_back(s);

    const Program p = constrainedIncrementProgram(10);
    sim::MachineConfig cfg = smallConfig(1);
    cfg.faults = plan;
    cfg.watchdogCycles = 2'000'000;
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.run();

    ASSERT_TRUE(m.allHalted());
    EXPECT_FALSE(m.watchdogFired());
    EXPECT_EQ(m.peekMem(dataBase, 8), 10u);
    EXPECT_GE(m.cpu(0).stats()
                  .counter("tx.abort.data-poisoned").value(), 1u);
    EXPECT_EQ(injectCounter(m, "scenario.fired"), 1u);
    EXPECT_EQ(injectCounter(m, "poison_line.fired"), 1u);
}

// ---------------------------------------------------------------
// Scenario engine: triggers, chaining, assertions.
// ---------------------------------------------------------------

TEST(Scenario, AtCycleFiresOnceAndChecksAssertion)
{
    // A step pinned to cycle 0 fires on the very first evaluation,
    // when no CPU can possibly be in a transaction: the TargetInTx
    // assertion must fail (counted, not fatal) and the fault itself
    // (a spurious abort against a non-transacting CPU) is a no-op.
    inject::FaultPlan plan;
    inject::ScenarioStep s;
    s.trigger = inject::TriggerKind::AtCycle;
    s.at = 0;
    s.kind = inject::FaultKind::SpuriousAbort;
    s.target = 0;
    s.check = inject::StepAssert::TargetInTx;
    plan.scenario.push_back(s);

    const Program p = constrainedIncrementProgram(5);
    sim::MachineConfig cfg = smallConfig(1);
    cfg.faults = plan;
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.run();

    ASSERT_TRUE(m.allHalted());
    EXPECT_EQ(m.peekMem(dataBase, 8), 5u);
    EXPECT_EQ(injectCounter(m, "scenario.fired"), 1u);
    EXPECT_EQ(injectCounter(m, "scenario.assert_failed"), 1u);
    EXPECT_EQ(m.injector()->scenarioAssertFailures(), 1u);
}

TEST(Scenario, PeriodicStepFiresExactlyRepeatTimes)
{
    inject::FaultPlan plan;
    inject::ScenarioStep s;
    s.trigger = inject::TriggerKind::AtCycle;
    s.at = 100;
    s.period = 2000;
    s.repeat = 3;
    s.kind = inject::FaultKind::InterruptStorm;
    s.target = 0;
    plan.scenario.push_back(s);
    plan.interruptBurst = 2;

    const Program p = constrainedIncrementProgram(60);
    sim::MachineConfig cfg = smallConfig(1);
    cfg.faults = plan;
    cfg.watchdogCycles = 2'000'000;
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.run();

    ASSERT_TRUE(m.allHalted());
    EXPECT_EQ(m.peekMem(dataBase, 8), 60u);
    EXPECT_EQ(injectCounter(m, "scenario.fired"), 3u);
    EXPECT_EQ(m.cpu(0).stats().counter("external_interrupts")
                  .value(), 6u); // 3 fires x burst of 2
}

TEST(Scenario, OnAbortAndAfterStepChain)
{
    // Step 0 arms on the third abort anywhere; step 1 fires a fixed
    // delay after step 0 did. Spurious-abort pressure supplies the
    // aborts.
    inject::FaultPlan plan;
    plan.spuriousAbortRate = 0.2;

    inject::ScenarioStep on_abort;
    on_abort.trigger = inject::TriggerKind::OnAbort;
    on_abort.count = 3;
    on_abort.kind = inject::FaultKind::CapacitySqueeze;
    plan.scenario.push_back(on_abort);

    inject::ScenarioStep chained;
    chained.trigger = inject::TriggerKind::AfterStep;
    chained.after = 0;
    chained.at = 500;
    chained.kind = inject::FaultKind::InterruptStorm;
    chained.target = 0;
    plan.scenario.push_back(chained);

    const Program p = constrainedIncrementProgram(40);
    sim::MachineConfig cfg = smallConfig(2);
    cfg.faults = plan;
    cfg.watchdogCycles = 2'000'000;
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.run();

    ASSERT_TRUE(m.allHalted());
    EXPECT_FALSE(m.watchdogFired());
    EXPECT_EQ(m.peekMem(dataBase, 8), 80u);
    EXPECT_EQ(injectCounter(m, "scenario.fired"), 2u);
    EXPECT_GE(injectCounter(m, "squeeze.fired"), 1u);
    EXPECT_GE(cpuCounterSum(m, "external_interrupts"), 2u);
}

TEST(Scenario, OnFootprintResolvesHolderAndPassesAssertion)
{
    inject::FaultPlan plan;
    inject::ScenarioStep s;
    s.trigger = inject::TriggerKind::OnFootprint;
    s.line = dataBase;
    s.kind = inject::FaultKind::TargetedConflict;
    s.check = inject::StepAssert::LineInTargetFootprint;
    plan.scenario.push_back(s);

    const Program p = constrainedIncrementProgram(20);
    sim::MachineConfig cfg = smallConfig(2);
    cfg.faults = plan;
    cfg.watchdogCycles = 2'000'000;
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.run();

    ASSERT_TRUE(m.allHalted());
    EXPECT_EQ(m.peekMem(dataBase, 8), 40u);
    EXPECT_EQ(injectCounter(m, "scenario.fired"), 1u);
    // The resolved target held the line in its footprint, so the
    // assertion passed and the conflict XI had a real victim.
    EXPECT_EQ(injectCounter(m, "scenario.assert_failed"), 0u);
    EXPECT_EQ(injectCounter(m, "targeted_conflict.fired"), 1u);
    EXPECT_EQ(injectCounter(m, "targeted_conflict.no_holder"), 0u);
}

TEST(Scenario, RejectsBackwardAfterStepReference)
{
    inject::FaultPlan plan;
    inject::ScenarioStep s;
    s.trigger = inject::TriggerKind::AfterStep;
    s.after = 0; // step 0 referencing itself: invalid
    plan.scenario.push_back(s);
    sim::MachineConfig cfg = smallConfig(1);
    cfg.faults = plan;
    EXPECT_DEATH({ sim::Machine m(cfg); }, "earlier step");
}

// ---------------------------------------------------------------
// Targeted conflicts: escalation ladder to solo with progress.
// ---------------------------------------------------------------

TEST(Targeted, PersistentConflictDrivesLadderToSolo)
{
    // A relentless single-line adversary: every step, with high
    // probability, one conflict XI lands on whoever holds the
    // shared counter line. Constrained retries must climb the
    // ladder (reduced speculation, then broadcast-stop), the solo
    // holder must be shielded from the adversary (fairness rule),
    // and the run must still complete with nothing lost.
    inject::FaultPlan plan;
    plan.targetedConflictRate = 0.5;
    plan.targetedLine = dataBase;

    const Program p = constrainedIncrementProgram(30);
    sim::MachineConfig cfg = smallConfig(2);
    cfg.faults = plan;
    cfg.watchdogCycles = 2'000'000;
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.run();

    ASSERT_TRUE(m.allHalted());
    EXPECT_FALSE(m.watchdogFired());
    EXPECT_EQ(m.peekMem(dataBase, 8), 60u); // forward progress

    EXPECT_GT(injectCounter(m, "targeted_conflict.fired"), 0u);
    EXPECT_GT(injectCounter(m, "targeted_conflict.taken"), 0u);
    EXPECT_GT(injectCounter(m, "targeted_conflict.suppressed_solo"),
              0u);
    EXPECT_GT(cpuCounterSum(m, "millicode.speculation_reduced"), 0u);
    EXPECT_GT(cpuCounterSum(m, "millicode.solo_requests"), 0u);
    EXPECT_EQ(cpuCounterSum(m, "millicode.solo_requests"),
              cpuCounterSum(m, "millicode.solo_releases"));
}

TEST(Targeted, NoHolderMeansNoVictim)
{
    // Aim at a line nobody caches: the fault fizzles, counted.
    inject::FaultPlan plan;
    inject::ScheduledFault f;
    f.at = 100;
    f.kind = inject::FaultKind::TargetedConflict;
    f.line = 0x7700'0000; // never touched by the program
    plan.schedule.push_back(f);

    const Program p = constrainedIncrementProgram(5);
    sim::MachineConfig cfg = smallConfig(1);
    cfg.faults = plan;
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.run();

    ASSERT_TRUE(m.allHalted());
    EXPECT_EQ(m.peekMem(dataBase, 8), 5u);
    EXPECT_EQ(injectCounter(m, "targeted_conflict.no_holder"), 1u);
    EXPECT_EQ(injectCounter(m, "targeted_conflict.fired"), 0u);
}

// ---------------------------------------------------------------
// Watchdog diagnosis bundles carry injector activity.
// ---------------------------------------------------------------

TEST(Watchdog, BundleReportsInjectorFires)
{
    inject::FaultPlan plan;
    plan.spuriousAbortRate = 1.0; // denies all progress

    const Program p = constrainedIncrementProgram(5);
    sim::MachineConfig cfg = smallConfig(1);
    cfg.faults = plan;
    cfg.watchdogCycles = 20'000;
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.run(10'000'000);

    ASSERT_TRUE(m.watchdogFired());
    const std::string report = m.watchdogReport().dump();
    EXPECT_NE(report.find("inject_fired"), std::string::npos);
    EXPECT_NE(report.find("inject_recent"), std::string::npos);
    EXPECT_NE(report.find("spurious_abort"), std::string::npos);

    // The fired-counts object is zero-filled per kind and the
    // recent list is non-empty under a plan this hostile.
    const Json &doc = m.watchdogReport();
    const Json *fired = doc.find("inject_fired");
    ASSERT_NE(fired, nullptr);
    for (std::size_t k = 0; k < inject::faultKindCount; ++k)
        EXPECT_TRUE(fired->contains(
            inject::faultKindName(inject::FaultKind(k))));
    const Json *recent = doc.find("inject_recent");
    ASSERT_NE(recent, nullptr);
    EXPECT_GT(recent->size(), 0u);
}

// ---------------------------------------------------------------
// Pinned semantics: untargeted scheduled faults.
// ---------------------------------------------------------------

TEST(ScheduledFault, UntargetedFaultReplaysIdentically)
{
    // ScheduledFault with target == invalidCpu hits the CPU about to
    // step when the fault comes due (documented in fault_plan.hh).
    // The run must be deterministic: two replays agree bit-for-bit.
    inject::FaultPlan plan;
    inject::ScheduledFault f;
    f.at = 500;
    f.kind = inject::FaultKind::InterruptStorm;
    plan.schedule.push_back(f);

    const Program p = constrainedIncrementProgram(25);
    const auto dump = [&] {
        sim::MachineConfig cfg = smallConfig(2);
        cfg.faults = plan;
        cfg.watchdogCycles = 2'000'000;
        sim::Machine m(cfg);
        m.setProgram(0, &p);
        m.setProgram(1, &p);
        m.run();
        EXPECT_TRUE(m.allHalted());
        EXPECT_EQ(m.peekMem(dataBase, 8), 50u);
        EXPECT_EQ(injectCounter(m, "scheduled.fired"), 1u);
        std::ostringstream out;
        m.dumpStatsJson(out);
        return out.str();
    };

    EXPECT_EQ(dump(), dump());
}

// ---------------------------------------------------------------
// Full RAS chaos plan: deterministic replay.
// ---------------------------------------------------------------

TEST(RasChaos, FullPlanReplaysBitIdentically)
{
    // Poison, targeted conflicts, spurious aborts, and a scripted
    // scenario all at once: the acceptance bar is zero watchdog
    // halts, no lost increments, and bit-identical stats when the
    // run is replayed.
    inject::FaultPlan plan;
    plan.spuriousAbortRate = 0.01;
    plan.targetedConflictRate = 0.05;
    plan.targetedLine = dataBase;
    plan.poisonRate = 0.01;

    inject::ScenarioStep poison;
    poison.trigger = inject::TriggerKind::AtCycle;
    poison.at = 1'000;
    poison.kind = inject::FaultKind::PoisonLine;
    poison.line = dataBase;
    plan.scenario.push_back(poison);

    inject::ScenarioStep conflict;
    conflict.trigger = inject::TriggerKind::OnAbort;
    conflict.count = 2;
    conflict.kind = inject::FaultKind::TargetedConflict;
    conflict.line = dataBase;
    plan.scenario.push_back(conflict);

    const Program p = constrainedIncrementProgram(20);
    const auto dump = [&] {
        sim::MachineConfig cfg = smallConfig(4);
        cfg.faults = plan;
        cfg.watchdogCycles = 2'000'000;
        sim::Machine m(cfg);
        for (unsigned i = 0; i < 4; ++i)
            m.setProgram(i, &p);
        m.run();
        EXPECT_TRUE(m.allHalted());
        EXPECT_FALSE(m.watchdogFired());
        EXPECT_EQ(m.peekMem(dataBase, 8), 80u); // nothing lost
        std::ostringstream out;
        m.dumpStatsJson(out);
        return out.str();
    };

    const std::string first = dump();
    EXPECT_EQ(first, dump());

    // The plan actually did RAS work.
    EXPECT_NE(first.find("data-poisoned"), std::string::npos);
    EXPECT_NE(first.find("poison.injected"), std::string::npos);
}

} // namespace
