/**
 * @file Machine scheduler: determinism, bounds, solo mode, and the
 * forward-progress watchdog.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/json.hh"
#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using isa::Assembler;
using isa::Program;

/** Counts iterations into GR5 until halted externally. */
Program
counterProgram(unsigned iterations)
{
    Assembler as;
    as.lhi(5, 0);
    as.lhi(8, std::int64_t(iterations));
    as.label("loop");
    as.ahi(5, 1);
    as.brct(8, "loop");
    as.halt();
    return as.finish();
}

TEST(Machine, RunsToCompletion)
{
    const Program p = counterProgram(100);
    sim::Machine m(smallConfig(2));
    m.setProgramAll(&p);
    const Cycles elapsed = m.run();
    EXPECT_TRUE(m.allHalted());
    EXPECT_GT(elapsed, 0u);
    EXPECT_EQ(m.cpu(0).gr(5), 100u);
    EXPECT_EQ(m.cpu(1).gr(5), 100u);
}

TEST(Machine, CpuHaltedOutsideRunIsNotStepped)
{
    // A CPU stepped to its halt through Cpu::step, not run(), must
    // not be scheduled again: every scheduler step is CPU 1's.
    const Program p = counterProgram(3);
    sim::Machine m(smallConfig(2));
    m.setProgramAll(&p);
    while (!m.cpu(0).halted())
        m.cpu(0).step();
    m.run();
    EXPECT_TRUE(m.allHalted());
    EXPECT_EQ(m.stats().value("scheduler.steps"),
              m.cpu(1).stats().value("instructions"));
}

TEST(Machine, BoundedRunStops)
{
    Assembler as;
    as.label("spin");
    as.ahi(5, 1);
    as.j("spin");
    const Program p = as.finish();
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    const Cycles elapsed = m.run(10'000);
    EXPECT_FALSE(m.allHalted());
    EXPECT_LE(elapsed, 10'000u);
    const std::uint64_t first = m.cpu(0).gr(5);
    EXPECT_GT(first, 0u);
    // Resumable: more progress on the next run call.
    m.run(10'000);
    EXPECT_GT(m.cpu(0).gr(5), first);
}

TEST(Machine, DeterministicAcrossIdenticalRuns)
{
    auto run_once = [](std::uint64_t seed) {
        Assembler as;
        as.la(9, 0, std::int64_t(dataBase));
        as.lhi(8, 50);
        as.label("loop");
        as.rnd(1, 16);
        as.sllg(1, 1, 8); // line offset
        as.agr(1, 9);
        as.lr(2, 1);
        as.lg(3, 1);
        as.ahi(3, 1);
        as.stg(3, 2);
        as.brct(8, "loop");
        as.halt();
        const Program p = as.finish();
        auto cfg = smallConfig(4);
        cfg.seed = seed;
        sim::Machine m(cfg);
        for (unsigned i = 0; i < 4; ++i)
            m.setProgram(i, &p);
        const Cycles elapsed = m.run();
        std::uint64_t sum = 0;
        for (unsigned i = 0; i < 16; ++i)
            sum += m.peekMem(dataBase + i * 256, 8) * (i + 1);
        return std::pair(elapsed, sum);
    };
    const auto a = run_once(42);
    const auto b = run_once(42);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
    const auto c = run_once(43);
    EXPECT_NE(a, c); // different seed, different interleaving
}

TEST(Machine, SoloModeParksOtherCpus)
{
    Assembler as;
    as.label("spin");
    as.ahi(5, 1);
    as.j("spin");
    const Program p = as.finish();
    sim::Machine m(smallConfig(2));
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.requestSolo(0);
    m.run(20'000);
    EXPECT_GT(m.cpu(0).gr(5), 100u);
    EXPECT_EQ(m.cpu(1).gr(5), 0u); // parked
    m.releaseSolo(0);
    m.run(20'000);
    EXPECT_GT(m.cpu(1).gr(5), 100u);
}

/** Spin forever: no commit, no region close, no halt. */
Program
spinProgram()
{
    Assembler as;
    as.label("spin");
    as.ahi(5, 1);
    as.j("spin");
    return as.finish();
}

TEST(Machine, BoundedRunStopsAndResumes)
{
    // Every CPU of a multi-chip machine advances inside the bound,
    // and again when the run resumes.
    const Program p = spinProgram();
    sim::Machine m(smallConfig(8));
    m.setProgramAll(&p);
    const Cycles elapsed = m.run(10'000);
    EXPECT_FALSE(m.allHalted());
    EXPECT_LE(elapsed, 10'000u);
    std::vector<std::uint64_t> first;
    for (unsigned i = 0; i < m.numCpus(); ++i) {
        first.push_back(m.cpu(i).gr(5));
        EXPECT_GT(first.back(), 0u) << "cpu " << i;
    }
    m.run(10'000);
    for (unsigned i = 0; i < m.numCpus(); ++i)
        EXPECT_GT(m.cpu(i).gr(5), first[i]) << "cpu " << i;
}

TEST(Machine, SoloModeParksCpuOnAnotherChip)
{
    const Program p = spinProgram();
    sim::Machine m(smallConfig(8));
    m.setProgramAll(&p);
    m.requestSolo(0);
    m.run(20'000);
    EXPECT_GT(m.cpu(0).gr(5), 100u);
    // CPU 5 lives on a different chip than the holder and must
    // still be parked.
    ASSERT_NE(m.hierarchy().topology().chipOf(5),
              m.hierarchy().topology().chipOf(0));
    EXPECT_EQ(m.cpu(5).gr(5), 0u);
    m.releaseSolo(0);
    m.run(20'000);
    EXPECT_GT(m.cpu(5).gr(5), 100u);
}

TEST(Machine, SoloRequestsSerializeWithoutDeadlock)
{
    // The first requester wins; the loser's request is dropped (it
    // will re-request on its next abort). Solo also auto-releases
    // when the holder halts, so competing requests cannot wedge the
    // machine.
    sim::Machine m(smallConfig(2));
    m.requestSolo(0);
    m.requestSolo(1); // loser: ignored
    const Program p = counterProgram(10);
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.run();
    EXPECT_TRUE(m.cpu(0).halted());
    EXPECT_TRUE(m.cpu(1).halted());
}

TEST(Machine, ParkedCpuDoesNotGetInterruptBurst)
{
    // Regression: a CPU parked behind solo mode falls many external
    // interrupt periods behind. On release it must skip the missed
    // period boundaries, not work through them as a back-to-back
    // burst of one interrupt per step (each delivery only advanced
    // the deadline by one period, far less than the 800-cycle
    // service stall it charges).
    auto cfg = smallConfig(2);
    cfg.externalInterruptPeriod = 2000; // > osInterruptCost (800)
    const Program p = counterProgram(50'000);
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.requestSolo(0); // parks CPU1 until CPU0 halts
    m.run();
    ASSERT_TRUE(m.allHalted());
    EXPECT_EQ(m.cpu(1).gr(5), 50'000u);

    const std::uint64_t ints0 =
        m.cpu(0).stats().value("external_interrupts");
    const std::uint64_t ints1 =
        m.cpu(1).stats().value("external_interrupts");
    // Both CPUs run the same program for about the same number of
    // running cycles, so with per-period delivery their interrupt
    // counts are close; the parked backlog collapses into a single
    // delivery. Working through the backlog one period per 800+
    // cycle service stall would inflate CPU1's count several-fold.
    EXPECT_GT(ints0, 0u);
    EXPECT_LT(ints1, ints0 + ints0 / 2 + 10);
    // The missed boundaries are accounted, not delivered.
    EXPECT_GT(m.stats().value("external.periods_skipped"), 0u);
}

TEST(Machine, StatsDumpContainsComponents)
{
    const Program p = counterProgram(5);
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run();
    const Json doc = m.statsJson();
    const Json &cpu0 = doc.find("cpus")->at(0);
    EXPECT_EQ(cpu0.find("name")->str(), "cpu0");
    EXPECT_GT(cpu0.find("counters")->find("instructions")->asUint(),
              0u);
}

TEST(Machine, CountersRegisterOnFirstIncrement)
{
    // A counter's key enters the stats document on its first
    // increment: a CPU that never runs a transaction writes no tx
    // keys, though its group declares them.
    const Program p = counterProgram(5);
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    const auto cpu0Counters = [&m] {
        return *m.statsJson().find("cpus")->at(0).find("counters");
    };
    EXPECT_EQ(cpu0Counters().find("instructions"), nullptr);
    m.run();
    const Json counters = cpu0Counters();
    EXPECT_NE(counters.find("instructions"), nullptr);
    for (const char *name : {"tx.begins", "tx.commits", "tx.aborts"}) {
        EXPECT_EQ(counters.find(name), nullptr) << name;
        EXPECT_EQ(m.cpu(0).stats().value(name), 0u) << name;
    }
}

/** Every stat group of a statsJson() document, by name. */
std::vector<const Json *>
statGroups(const Json &doc)
{
    std::vector<const Json *> groups;
    for (const char *name : {"machine", "hierarchy", "os", "io", "inject"})
        if (const Json *g = doc.find(name))
            groups.push_back(g);
    const Json &cpus = *doc.find("cpus");
    for (std::size_t i = 0; i < cpus.size(); ++i)
        groups.push_back(&cpus.at(i));
    return groups;
}

TEST(Machine, StatsDocumentWritesOnlyNonZeroStats)
{
    // Faults, channel I/O and the watchdog armed: every owner's
    // group is in the document, each holding only what counted.
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(8, 40);
    as.label("loop");
    as.markb();
    as.tbeginc(0xFF);
    as.lg(1, 9);
    as.ahi(1, 1);
    as.stg(1, 9);
    as.tend();
    as.marke();
    as.stg(8, 9, 512); // outside any transaction: gathers
    as.stg(8, 9, 520);
    as.brct(8, "loop");
    as.halt();
    const Program p = as.finish();

    sim::MachineConfig cfg = smallConfig(3);
    cfg.enableIo = true;
    cfg.watchdogCycles = 2'000'000;
    cfg.externalInterruptPeriod = 5'003;
    cfg.faults.spuriousAbortRate = 0.01;
    cfg.faults.xiStormRate = 0.01;
    cfg.faults.capacitySqueezeRate = 0.01;
    cfg.faults.delayedXiRate = 0.05;
    sim::Machine m(cfg);
    m.setProgramAll(&p);
    m.io().submit({.write = false, .addr = dataBase, .length = 512});
    m.run();
    ASSERT_TRUE(m.allHalted());
    EXPECT_FALSE(m.watchdogFired());
    EXPECT_EQ(m.peekMem(dataBase, 8), 120u);

    const Json doc = m.statsJson();
    EXPECT_EQ(doc.dump().find("distributions"), std::string::npos);
    const std::vector<const Json *> groups = statGroups(doc);
    ASSERT_EQ(groups.size(), 5u + m.numCpus());
    for (const Json *g : groups) {
        const std::string &name = g->find("name")->str();
        for (const auto &[stat, v] : g->find("counters")->items())
            EXPECT_NE(v.asUint(), 0u) << name << " " << stat;
        for (const auto &[stat, h] : g->find("histograms")->items())
            EXPECT_NE(h.find("total")->asUint(), 0u) << name << " " << stat;
    }

    using StoreCacheCounters = core::GatheringStoreCache::Counters;
    const std::pair<const char *, Counter StoreCacheCounters::*>
        store_cache[] = {
            {"store_cache.gathers", &StoreCacheCounters::gathers},
            {"store_cache.allocations", &StoreCacheCounters::allocations},
            {"store_cache.evictions", &StoreCacheCounters::evictions},
            {"store_cache.ntstg_overlap",
             &StoreCacheCounters::ntstgOverlap},
            {"store_cache.overflows", &StoreCacheCounters::overflows},
        };
    std::uint64_t gathers = 0;
    for (unsigned i = 0; i < m.numCpus(); ++i) {
        const StoreCacheCounters &sc = m.cpu(i).storeCache().counters();
        const Json &counters = *doc.find("cpus")->at(i).find("counters");
        for (const auto &[stat, member] : store_cache) {
            const std::uint64_t v = (sc.*member).value();
            const Json *written = counters.find(stat);
            if (v == 0) {
                EXPECT_EQ(written, nullptr) << "cpu" << i << " " << stat;
            } else {
                ASSERT_NE(written, nullptr) << "cpu" << i << " " << stat;
                EXPECT_EQ(written->asUint(), v) << "cpu" << i << " " << stat;
            }
        }
        gathers += sc.gathers.value();
    }
    EXPECT_GT(gathers, 0u);
}

TEST(Machine, ActiveCpusBoundedByTopology)
{
    auto cfg = smallConfig(8); // exactly the topology capacity
    sim::Machine m(cfg);
    EXPECT_EQ(m.numCpus(), 8u);
}

TEST(MachineDeathTest, ActiveCpusBeyondTopologyIsFatal)
{
    // Checked before the hierarchy is built from the count.
    auto cfg = smallConfig(9);
    EXPECT_DEATH({ sim::Machine m(cfg); },
                 "activeCpus 9 exceeds topology capacity 8");
}

TEST(Machine, CachesOnlyForRunningCpus)
{
    // 2 of 8 slots run: one chip's L3 and one L4. With I/O on, the
    // channel agent's slot 7 needs every cache.
    auto cfg = smallConfig(2);
    EXPECT_EQ(sim::Machine(cfg).hierarchy().builtCpus(), 2u);
    cfg.enableIo = true;
    EXPECT_EQ(sim::Machine(cfg).hierarchy().builtCpus(), 8u);
}

TEST(Machine, InterleavingProducesRaces)
{
    // Unsynchronized read-modify-write on a shared counter from two
    // CPUs loses updates — evidence the scheduler interleaves at
    // sub-operation granularity (and the baseline for why TX/locks
    // are needed at all).
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(8, 400);
    as.label("loop");
    as.lg(1, 9);
    as.ahi(1, 1);
    as.stg(1, 9);
    as.brct(8, "loop");
    as.halt();
    const Program p = as.finish();
    sim::Machine m(smallConfig(2));
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.run();
    EXPECT_LT(m.peekMem(dataBase, 8), 800u);
    EXPECT_GE(m.peekMem(dataBase, 8), 400u);
}

TEST(Watchdog, IoCompletionsCountAsForwardProgress)
{
    // Regression: a machine whose only work is DMA traffic (CPUs
    // spin uselessly) is making forward progress; the watchdog must
    // not fire while transfers keep completing.
    auto cfg = smallConfig(1);
    cfg.enableIo = true;
    cfg.watchdogCycles = 30'000;
    sim::Machine m(cfg);
    const Program p = spinProgram();
    m.setProgram(0, &p);
    for (unsigned i = 0; i < 1'000; ++i)
        m.io().submit({.write = true,
                       .addr = dataBase + i * 4096,
                       .length = 4096,
                       .pattern = 0x5A});
    m.run(2'000'000);
    EXPECT_FALSE(m.watchdogFired()) << "fired despite live I/O";
    EXPECT_GT(m.io().completed(), 0u);
}

TEST(Watchdog, FiresWithoutAnyProgressSource)
{
    // Counter-check for the test above: the same spinning machine
    // with no I/O traffic must trip the watchdog.
    auto cfg = smallConfig(1);
    cfg.watchdogCycles = 30'000;
    sim::Machine m(cfg);
    const Program p = spinProgram();
    m.setProgram(0, &p);
    m.run(2'000'000);
    EXPECT_TRUE(m.watchdogFired());
}

} // namespace
