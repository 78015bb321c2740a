/**
 * @file
 * The fault-injection subsystem (src/inject): consistency-oracle
 * unit tests on hand-built structures (including corrupted ones),
 * seeded bit-identical replay of chaotic runs, the forward-progress
 * watchdog, the constrained-retry escalation ladder under injected
 * aborts, capacity squeezes, delayed XI responses, and the bounded
 * PPA delay window.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "inject/fault_injector.hh"
#include "inject/fault_plan.hh"
#include "inject/oracle.hh"
#include "mem/main_memory.hh"
#include "millicode/millicode.hh"
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

// ---------------------------------------------------------------
// Consistency oracle: hand-built structures, valid and corrupted.
// ---------------------------------------------------------------

class OracleListSet : public ::testing::Test
{
  protected:
    static constexpr Addr sentinel = 0x1000;
    static constexpr Addr nodeA = 0x2000;
    static constexpr Addr nodeB = 0x3000;

    void
    SetUp() override
    {
        // sentinel -> (10) -> (20) -> null
        mem.write(sentinel + 8, nodeA, 8);
        mem.write(nodeA + 0, 10, 8);
        mem.write(nodeA + 8, nodeB, 8);
        mem.write(nodeB + 0, 20, 8);
        mem.write(nodeB + 8, 0, 8);
    }

    mem::MainMemory mem;
};

TEST_F(OracleListSet, ValidListPasses)
{
    const auto rep = inject::checkListSet(mem, true, sentinel, 2);
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_EQ(rep.summary(), "ok");
    EXPECT_EQ(rep.length, 2u);
    EXPECT_TRUE(rep.sorted);
}

TEST_F(OracleListSet, UnsortedKeysCaught)
{
    mem.write(nodeA + 0, 30, 8); // 30 before 20: not ascending
    const auto rep = inject::checkListSet(mem, true, sentinel, 2);
    EXPECT_FALSE(rep.ok);
    // The walk still measures the corrupt list.
    EXPECT_EQ(rep.length, 2u);
    EXPECT_FALSE(rep.sorted);
}

TEST_F(OracleListSet, DuplicateKeyCaught)
{
    mem.write(nodeB + 0, 10, 8); // strict ascent also rejects ties
    EXPECT_FALSE(inject::checkListSet(mem, true, sentinel, 2).ok);
}

TEST_F(OracleListSet, WrongLengthCaught)
{
    const auto rep = inject::checkListSet(mem, true, sentinel, 3);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.length, 2u);
    EXPECT_TRUE(rep.sorted);

    mem.write(sentinel + 8, nodeB, 8); // a lost node: A unlinked
    const auto lost = inject::checkListSet(mem, true, sentinel, 2);
    EXPECT_FALSE(lost.ok);
    EXPECT_EQ(lost.length, 1u);
}

TEST_F(OracleListSet, CycleCaughtWithoutHanging)
{
    mem.write(nodeB + 8, nodeA, 8); // B -> A: a cycle
    EXPECT_FALSE(inject::checkListSet(mem, true, sentinel, 2).ok);
}

class OracleQueue : public ::testing::Test
{
  protected:
    static constexpr Addr headPtr = 0x100;
    static constexpr Addr tailPtr = 0x108;
    static constexpr Addr dummy = 0x1000;
    static constexpr Addr nodeA = 0x2000;
    static constexpr Addr nodeB = 0x3000;

    void
    SetUp() override
    {
        // dummy -> A -> B -> null; head = dummy, tail = B.
        mem.write(headPtr, dummy, 8);
        mem.write(tailPtr, nodeB, 8);
        mem.write(dummy + 8, nodeA, 8);
        mem.write(nodeA + 0, 1, 8);
        mem.write(nodeA + 8, nodeB, 8);
        mem.write(nodeB + 0, 2, 8);
        mem.write(nodeB + 8, 0, 8);
    }

    mem::MainMemory mem;
};

TEST_F(OracleQueue, ValidQueuePasses)
{
    const auto rep = inject::checkQueue(mem, true, headPtr, tailPtr, 2);
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_EQ(rep.length, 2u);
}

TEST_F(OracleQueue, NullHeadCaught)
{
    mem.write(headPtr, 0, 8);
    EXPECT_FALSE(inject::checkQueue(mem, true, headPtr, tailPtr, 2).ok);
}

TEST_F(OracleQueue, StaleTailCaught)
{
    mem.write(tailPtr, nodeA, 8); // tail is not the last node
    const auto rep = inject::checkQueue(mem, true, headPtr, tailPtr, 2);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.length, 2u);
}

TEST_F(OracleQueue, DanglingTailNextCaught)
{
    mem.write(nodeB + 8, 0xDEAD00, 8); // tail->next != null
    EXPECT_FALSE(inject::checkQueue(mem, true, headPtr, tailPtr, 2).ok);
}

TEST_F(OracleQueue, WrongLengthCaught)
{
    const auto rep = inject::checkQueue(mem, true, headPtr, tailPtr, 1);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.length, 2u);
}

TEST_F(OracleQueue, CycleCaughtWithoutHanging)
{
    mem.write(nodeB + 8, dummy, 8);
    EXPECT_FALSE(inject::checkQueue(mem, true, headPtr, tailPtr, 2).ok);
}

class OracleHashTable : public ::testing::Test
{
  protected:
    static constexpr Addr base = 0x10000;
    static constexpr unsigned buckets = 8;
    static constexpr unsigned maxProbes = 2;

    static std::uint64_t
    bucketOf(std::uint64_t key)
    {
        return key % buckets;
    }

    void
    put(unsigned slot, std::uint64_t key, std::uint64_t value)
    {
        mem.write(base + Addr(slot) * 256 + 0, key, 8);
        mem.write(base + Addr(slot) * 256 + 8, value, 8);
    }

    inject::HashTableReport
    check(std::int64_t min_occ, std::int64_t max_occ)
    {
        return inject::checkHashTable(mem, true, base, buckets,
                                      maxProbes,
                                      bucketOf, min_occ, max_occ);
    }

    mem::MainMemory mem;
};

TEST_F(OracleHashTable, ValidTablePasses)
{
    put(3, 3, 3);
    put(4, 3 + buckets, 3 + buckets); // probed one past bucket 3
    const auto rep = check(2, 2);
    EXPECT_TRUE(rep.ok) << rep.summary();
    EXPECT_EQ(rep.occupied, 2u);
}

TEST_F(OracleHashTable, CorruptValueCaught)
{
    put(3, 3, 99); // workload invariant is value == key
    const auto rep = check(0, 8);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.occupied, 1u);
}

TEST_F(OracleHashTable, DuplicateKeyCaught)
{
    put(3, 3, 3);
    put(4, 3, 3); // same key claimed twice (lost isolation)
    const auto rep = check(0, 8);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.occupied, 2u);
}

TEST_F(OracleHashTable, KeyOutsideProbeWindowCaught)
{
    put(6, 3, 3); // bucket 3, window [3, 5)
    EXPECT_FALSE(check(0, 8).ok);
}

TEST_F(OracleHashTable, OccupancyBoundsEnforced)
{
    put(3, 3, 3);
    EXPECT_FALSE(check(2, 8).ok); // fewer than the prefill floor
    EXPECT_FALSE(check(0, 0).ok); // more than the key space
    EXPECT_EQ(check(0, 0).occupied, 1u);
}

// A structural walk over a machine with CPUs still running would
// see mid-flight transactional state: every checker must refuse it
// outright, even when the structure itself happens to be valid.
TEST(OracleHaltGuard, MidFlightWalkRejected)
{
    mem::MainMemory mem;
    // Valid one-node list: sentinel -> (10) -> null.
    mem.write(0x1000 + 8, 0x2000, 8);
    mem.write(0x2000 + 0, 10, 8);
    mem.write(0x2000 + 8, 0, 8);
    ASSERT_TRUE(inject::checkListSet(mem, true, 0x1000, 1).ok);
    const auto list = inject::checkListSet(mem, false, 0x1000, 1);
    EXPECT_FALSE(list.ok);
    EXPECT_NE(list.summary().find("still running"),
              std::string::npos);
    // A refused walk measures nothing.
    EXPECT_EQ(list.length, 0u);
    EXPECT_FALSE(list.sorted);

    // Valid empty queue: head = tail = dummy, dummy->next = null.
    mem.write(0x100, 0x3000, 8);
    mem.write(0x108, 0x3000, 8);
    mem.write(0x3000 + 8, 0, 8);
    ASSERT_TRUE(inject::checkQueue(mem, true, 0x100, 0x108, 0).ok);
    EXPECT_FALSE(inject::checkQueue(mem, false, 0x100, 0x108, 0).ok);

    // Valid empty hash table.
    const auto mod8 = [](std::uint64_t k) { return k % 8; };
    ASSERT_TRUE(
        inject::checkHashTable(mem, true, 0x10000, 8, 2, mod8, 0, 8)
            .ok);
    EXPECT_FALSE(
        inject::checkHashTable(mem, false, 0x10000, 8, 2, mod8, 0, 8)
            .ok);
}

// ---------------------------------------------------------------
// Seeded replay: a chaotic run is bit-identical across machines.
// ---------------------------------------------------------------

TEST(Inject, ChaoticRunReplaysBitIdentically)
{
    inject::FaultPlan plan;
    plan.spuriousAbortRate = 0.01;
    plan.xiStormRate = 0.01;
    plan.capacitySqueezeRate = 0.002;
    plan.squeezeDuration = 500;
    plan.interruptStormRate = 0.002;
    plan.delayedXiRate = 0.3;

    const Program p = constrainedIncrementProgram(40);
    const auto run = [&] {
        sim::MachineConfig cfg = smallConfig(2);
        cfg.faults = plan;
        cfg.watchdogCycles = 2'000'000;
        sim::Machine m(cfg);
        m.setProgram(0, &p);
        m.setProgram(1, &p);
        m.run();
        EXPECT_TRUE(m.allHalted());
        EXPECT_EQ(m.peekMem(dataBase, 8), 80u);
        std::ostringstream out;
        m.dumpStatsJson(out);
        return out.str();
    };

    const std::string first = run();
    const std::string second = run();
    EXPECT_EQ(first, second);
    // The dump proves the injector actually did something.
    EXPECT_NE(first.find("\"inject\""), std::string::npos);
}

TEST(Inject, PlanSeedOverridesMachineDerivation)
{
    inject::FaultPlan plan;
    plan.spuriousAbortRate = 0.05;

    const Program p = constrainedIncrementProgram(30);
    const auto spuriousAborts = [&](std::uint64_t plan_seed,
                                    std::uint64_t machine_seed) {
        sim::MachineConfig cfg = smallConfig(1);
        cfg.faults = plan;
        cfg.faults.seed = plan_seed;
        cfg.seed = machine_seed;
        sim::Machine m(cfg);
        m.setProgram(0, &p);
        m.run();
        EXPECT_EQ(m.peekMem(dataBase, 8), 30u);
        return m.cpu(0)
            .stats()
            .counter("inject.spurious_aborts")
            .value();
    };

    // An explicit plan seed pins the fault sequence regardless of
    // the machine seed; with seed 0 the machine seed matters.
    EXPECT_EQ(spuriousAborts(77, 1), spuriousAborts(77, 2));
}

// ---------------------------------------------------------------
// Forward-progress watchdog.
// ---------------------------------------------------------------

TEST(Watchdog, FiresOnLivelockAndDumpsDiagnosis)
{
    Assembler as;
    as.label("spin");
    as.j("spin"); // no commit, no region close, no halt: livelock
    const Program p = as.finish();

    sim::MachineConfig cfg = smallConfig(1);
    cfg.watchdogCycles = 5'000;
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    const Cycles elapsed = m.run(1'000'000);

    EXPECT_TRUE(m.watchdogFired());
    EXPECT_FALSE(m.allHalted());
    EXPECT_LT(elapsed, 1'000'000u); // stopped, not timed out
    EXPECT_GE(elapsed, 5'000u);
    EXPECT_EQ(m.stats().counter("watchdog.fired").value(), 1u);

    const std::string report = m.watchdogReport().dump();
    EXPECT_NE(report.find("ztx.watchdog"), std::string::npos);
    EXPECT_NE(report.find("progress_events"), std::string::npos);
    EXPECT_NE(report.find("ladder"), std::string::npos);
}

TEST(Watchdog, StaysQuietOnHealthyRun)
{
    const Program p = constrainedIncrementProgram(50);
    sim::MachineConfig cfg = smallConfig(2);
    cfg.watchdogCycles = 50'000;
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.run();
    EXPECT_TRUE(m.allHalted());
    EXPECT_FALSE(m.watchdogFired());
    EXPECT_EQ(m.peekMem(dataBase, 8), 100u);
}

TEST(Watchdog, CatchesIntentionallyBrokenInjection)
{
    // Negative test for the whole harness: an injection campaign so
    // broken it denies progress entirely (every transactional step
    // spuriously aborted) must be caught by the watchdog rather
    // than hang — proving the safety nets are actually armed.
    inject::FaultPlan plan;
    plan.spuriousAbortRate = 1.0;

    const Program p = constrainedIncrementProgram(5);
    sim::MachineConfig cfg = smallConfig(1);
    cfg.faults = plan;
    cfg.watchdogCycles = 20'000;
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.run(10'000'000);

    EXPECT_TRUE(m.watchdogFired());
    EXPECT_EQ(m.peekMem(dataBase, 8), 0u); // never committed
    const std::string report = m.watchdogReport().dump();
    EXPECT_NE(report.find("fault_plan"), std::string::npos);
}

// ---------------------------------------------------------------
// Escalation ladder under injected aborts (paper §III.E).
// ---------------------------------------------------------------

TEST(Inject, ConstrainedLadderEscalatesAndRecovers)
{
    // Heavy spurious-abort pressure forces constrained retries all
    // the way up the ladder: random delays, reduced speculation,
    // then broadcast-stop (solo). Eventual success must still hold,
    // and every rung must be released afterwards.
    inject::FaultPlan plan;
    plan.spuriousAbortRate = 0.3;

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
    EXPECT_EQ(m.peekMem(dataBase, 8), 60u); // no lost increments

    std::uint64_t delays = 0, reduced = 0, solos = 0, releases = 0;
    for (unsigned i = 0; i < m.numCpus(); ++i) {
        auto &st = m.cpu(i).stats();
        delays += st.counter("millicode.constrained_delays").value();
        reduced +=
            st.counter("millicode.speculation_reduced").value();
        solos += st.counter("millicode.solo_requests").value();
        releases += st.counter("millicode.solo_releases").value();
    }
    EXPECT_GT(delays, 0u);
    EXPECT_GT(reduced, 0u);
    EXPECT_GT(solos, 0u);
    EXPECT_EQ(solos, releases); // every broadcast-stop released

    // constrainedSuccess reset the ladder on both CPUs.
    EXPECT_EQ(m.soloHolder(), invalidCpu);
    for (unsigned i = 0; i < m.numCpus(); ++i) {
        EXPECT_EQ(m.cpu(i).constrainedAbortCount(), 0u);
        EXPECT_FALSE(m.cpu(i).soloHeld());
        EXPECT_FALSE(m.cpu(i).speculationReduced());
    }
}

// ---------------------------------------------------------------
// Capacity squeeze: a scenario step shrinks effective ways.
// ---------------------------------------------------------------

namespace {

/**
 * A transaction reading four lines 128 KB apart: all in one L2 row
 * (512 rows x 256 B lines), comfortably within the full 8-way L2
 * but impossible in two ways. On abort CC != 0 branches out.
 */
Program
rowConflictProgram()
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(7, 0);
    as.tbegin(0xFF);
    as.jnz("aborted");
    as.lg(1, 9, 0);
    as.lg(2, 9, 128 * 1024);
    as.lg(3, 9, 256 * 1024);
    as.lg(4, 9, 384 * 1024);
    as.tend();
    as.lhi(7, 1); // committed
    as.label("aborted");
    as.halt();
    return as.finish();
}

} // namespace

TEST(Inject, CapacitySqueezeForcesCacheAborts)
{
    // Without the squeeze the row-conflict transaction commits.
    {
        sim::Machine m(smallConfig(1));
        const Program p = rowConflictProgram();
        m.setProgram(0, &p);
        m.run();
        EXPECT_EQ(m.cpu(0).gr(7), 1u);
    }

    // With L1 squeezed to one way and L2 to two, the four-line read
    // set cannot be kept: the LRU eviction XIs the tx line and aborts
    // with a cache-related reason.
    sim::MachineConfig cfg = smallConfig(1);
    cfg.faults.scenario.push_back(
        {.trigger = inject::TriggerKind::AtCycle,
         .at = 0,
         .kind = inject::FaultKind::CapacitySqueeze,
         .target = 0});
    cfg.faults.squeezeDuration = 100'000'000;
    sim::Machine m(cfg);
    const Program p = rowConflictProgram();
    m.setProgram(0, &p);
    m.run();

    EXPECT_TRUE(m.allHalted());
    EXPECT_EQ(m.cpu(0).gr(7), 0u); // aborted, fell through
    auto &st = m.cpu(0).stats();
    EXPECT_GT(st.counter("tx.abort.cache-fetch").value(), 0u);
    ASSERT_NE(m.injector(), nullptr);
    EXPECT_EQ(m.injector()->stats().counters().at("squeeze.fired").value(),
              1u);
}

TEST(Inject, CapacitySqueezeExpiresAndRestoresWays)
{
    // A short squeeze on a long-running workload: progress resumes
    // after expiry and the restore is observable in the stats.
    inject::FaultPlan plan;
    plan.capacitySqueezeRate = 0.01;
    plan.squeezeDuration = 200;

    const Program p = constrainedIncrementProgram(40);
    sim::MachineConfig cfg = smallConfig(2);
    cfg.faults = plan;
    cfg.watchdogCycles = 2'000'000;
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.run();

    EXPECT_TRUE(m.allHalted());
    EXPECT_EQ(m.peekMem(dataBase, 8), 80u);
    ASSERT_NE(m.injector(), nullptr);
    const auto &st = m.injector()->stats().counters();
    const std::uint64_t fired = st.at("squeeze.fired").value();
    const std::uint64_t restored = st.at("squeeze.restored").value();
    EXPECT_GT(fired, 0u);
    EXPECT_GT(restored, 0u); // at least one squeeze ran its course
    // A squeeze still pending at halt is never restored; at most
    // one such straggler per CPU.
    EXPECT_LE(restored, fired);
    EXPECT_LE(fired - restored, std::uint64_t(m.numCpus()));
}

// ---------------------------------------------------------------
// Delayed XI responses: pure timing perturbation.
// ---------------------------------------------------------------

TEST(Inject, DelayedXiSlowsConflictsWithoutChangingResults)
{
    const Program p = constrainedIncrementProgram(40);
    const auto elapsedWith = [&](double rate) {
        sim::MachineConfig cfg = smallConfig(2);
        cfg.faults.delayedXiRate = rate;
        cfg.faults.xiDelayMax = 200;
        sim::Machine m(cfg);
        m.setProgram(0, &p);
        m.setProgram(1, &p);
        const Cycles elapsed = m.run();
        EXPECT_TRUE(m.allHalted());
        EXPECT_EQ(m.peekMem(dataBase, 8), 80u);
        if (rate > 0) {
            EXPECT_GT(m.injector()
                          ->stats()
                          .counters()
                          .at("xi_delay.fired")
                          .value(),
                      0u);
        }
        return elapsed;
    };

    // Same final state, strictly more cycles under delay.
    EXPECT_GT(elapsedWith(1.0), elapsedWith(0.0));
}

// ---------------------------------------------------------------
// PPA delay window stays bounded (millicode hardening).
// ---------------------------------------------------------------

TEST(Millicode, PpaDelayClampsExtremeShifts)
{
    // A pathological calibration: a huge base delay with the shift
    // cap at 63 would overflow a 64-bit window without clamping.
    sim::MachineConfig cfg = smallConfig(1);
    cfg.tm.ppaBaseDelay = Cycles(1) << 40;
    cfg.tm.ppaMaxShift = 63;
    sim::Machine m(cfg);

    const Cycles delay =
        millicode::MillicodeEngine::ppaDelay(m.cpu(0), ~0ULL);
    EXPECT_GE(delay, cfg.tm.ppaBaseDelay); // no wraparound to tiny
}

TEST(Millicode, PpaDelayZeroBaseMeansNoDelay)
{
    sim::MachineConfig cfg = smallConfig(1);
    cfg.tm.ppaBaseDelay = 0;
    sim::Machine m(cfg);
    EXPECT_EQ(millicode::MillicodeEngine::ppaDelay(m.cpu(0), 50),
              0u);
}

TEST(Millicode, PpaDelayBoundedUnderDefaultConfig)
{
    sim::MachineConfig cfg = smallConfig(1);
    sim::Machine m(cfg);
    const auto &tm = cfg.tm;
    for (std::uint64_t count = 0; count < 100; ++count) {
        const Cycles delay =
            millicode::MillicodeEngine::ppaDelay(m.cpu(0), count);
        EXPECT_LE(delay, (tm.ppaBaseDelay << tm.ppaMaxShift) +
                             tm.ppaBaseDelay)
            << "abort count " << count;
    }
}

} // namespace
