/**
 * @file
 * Spin replay (MachineConfig::spinFastForward, DESIGN.md §5b
 * "Replayed spinners") against stepping every spin iteration.
 *
 * Every test runs the same machine twice, replay off and on, and
 * compares statsJson() byte for byte together with every CPU's GRs
 * and PSW. Each also checks that replay actually happened, so a
 * change that quietly stops replaying cannot pass as "identical".
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "locks/lock_gen.hh"
#include "sim/machine.hh"
#include "workload/update_bench.hh"
#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using isa::Assembler;
using isa::Program;
using workload::SyncMethod;

/** Stats document plus every CPU's GRs and PSW. */
std::string
machineState(const sim::Machine &m)
{
    std::ostringstream out;
    out << m.statsJson().dump();
    for (unsigned c = 0; c < m.numCpus(); ++c) {
        const core::Cpu &cpu = m.cpu(c);
        out << "\ncpu" << c << " ia=" << cpu.psw().ia
            << " cc=" << unsigned(cpu.psw().cc);
        for (unsigned r = 0; r < isa::numGrs; ++r)
            out << ' ' << cpu.gr(r);
    }
    return out.str();
}

/** One configuration run with replay off and on. */
struct Both
{
    std::string off;
    std::string on;
    std::uint64_t replayed = 0;
};

/** Build a machine from @p cfg, let @p drive run it, both ways. */
Both
runBoth(sim::MachineConfig cfg,
        const std::function<void(sim::Machine &)> &drive)
{
    Both both;
    for (const bool on : {false, true}) {
        cfg.spinFastForward = on;
        sim::Machine m(cfg);
        drive(m);
        (on ? both.on : both.off) = machineState(m);
        if (on)
            both.replayed = m.spinReplayedSteps();
    }
    return both;
}

/** Up to 120 CPUs (6 x 4 x 5) with trimmed L3/L4. */
sim::MachineConfig
wideConfig(unsigned cpus)
{
    sim::MachineConfig cfg;
    cfg.topology = mem::Topology(6, 4, 5);
    cfg.geometry.l3 = {8ULL << 20, 12};
    cfg.geometry.l4 = {32ULL << 20, 24};
    cfg.activeCpus = cpus;
    cfg.seed = 11;
    return cfg;
}

/**
 * The figure-5 update bench on @p cpus CPUs, run to completion in
 * windows of @p window cycles (0: one unbounded run).
 */
Both
updateBench(SyncMethod method, unsigned cpus, unsigned iterations,
            Cycles window = 0, Cycles interrupt_period = 0)
{
    workload::UpdateBenchConfig cfg;
    cfg.cpus = cpus;
    cfg.method = method;
    cfg.poolSize = 10;
    cfg.varsPerOp = method == SyncMethod::FineLock ? 1 : 4;
    cfg.readOnly = method == SyncMethod::RwLock;
    cfg.iterations = iterations;
    cfg.machine = wideConfig(cpus);
    cfg.machine.externalInterruptPeriod = interrupt_period;
    const Program program = workload::buildUpdateProgram(cfg);
    return runBoth(cfg.machine, [&](sim::Machine &m) {
        m.setProgramAll(&program);
        if (window == 0) {
            m.run();
        } else {
            while (!m.allHalted())
                m.run(window);
        }
        EXPECT_TRUE(m.allHalted());
    });
}

/** Iterations per CPU that keep a 100-CPU run short. */
unsigned
itersFor(unsigned cpus)
{
    return cpus >= 100 ? 8 : 30;
}

void
expectSameAcrossCpuCounts(SyncMethod method, bool expect_replay)
{
    std::uint64_t replayed = 0;
    for (const unsigned cpus : {2u, 4u, 8u, 24u, 100u}) {
        const Both b = updateBench(method, cpus, itersFor(cpus));
        EXPECT_EQ(b.off, b.on)
            << workload::syncMethodName(method) << " at " << cpus;
        replayed += b.replayed;
    }
    if (expect_replay) {
        EXPECT_GT(replayed, 0u) << workload::syncMethodName(method);
    }
}

TEST(SpinReplay, CoarseLockUpdateBench)
{
    expectSameAcrossCpuCounts(SyncMethod::CoarseLock, true);
}

TEST(SpinReplay, FineLockUpdateBench)
{
    expectSameAcrossCpuCounts(SyncMethod::FineLock, true);
}

TEST(SpinReplay, RwLockUpdateBench)
{
    // Readers only: they rarely wait, so replay is not required here;
    // RwReadersWaitOnWriter below makes them wait.
    expectSameAcrossCpuCounts(SyncMethod::RwLock, false);
}

TEST(SpinReplay, TBeginElisionWithFallbackLock)
{
    expectSameAcrossCpuCounts(SyncMethod::TBegin, true);
}

TEST(SpinReplay, BoundedWindowsAndInterrupts)
{
    for (const SyncMethod method :
         {SyncMethod::CoarseLock, SyncMethod::TBegin}) {
        for (const Cycles window : {Cycles(0), Cycles(997)}) {
            for (const Cycles period : {Cycles(0), Cycles(4001)}) {
                const Both b = updateBench(method, 24, 20, window, period);
                EXPECT_EQ(b.off, b.on)
                    << workload::syncMethodName(method) << " window "
                    << window << " period " << period;
                EXPECT_GT(b.replayed, 0u);
            }
        }
    }
}

TEST(SpinReplay, TBeginCUnderSoloContention)
{
    // Lock spinners share the pool with constrained transactions, so
    // constrained aborts escalate to solo mode while CPUs replay.
    workload::UpdateBenchConfig cfg;
    cfg.cpus = 24;
    cfg.poolSize = 10;
    cfg.varsPerOp = 4;
    cfg.iterations = 20;
    cfg.machine = wideConfig(cfg.cpus);
    cfg.method = SyncMethod::TBeginc;
    const Program constrained = workload::buildUpdateProgram(cfg);
    cfg.method = SyncMethod::CoarseLock;
    const Program locked = workload::buildUpdateProgram(cfg);
    std::uint64_t solo = 0;
    const Both b = runBoth(cfg.machine, [&](sim::Machine &m) {
        for (unsigned c = 0; c < m.numCpus(); ++c)
            m.setProgram(c, c % 2 ? &constrained : &locked);
        m.run();
        EXPECT_TRUE(m.allHalted());
        solo = m.stats().value("solo.requests");
    });
    EXPECT_EQ(b.off, b.on);
    EXPECT_GT(b.replayed, 0u);
    EXPECT_GT(solo, 0u);
}

constexpr Addr lockAddr = test::dataBase + 0x10000;

/** Acquire the lock at GR10 (after @p lead cycles), release, halt. */
Program
lockOnceProgram(std::int64_t lead)
{
    Assembler as;
    as.la(10, 0, std::int64_t(lockAddr));
    as.lhi(7, lead);
    as.delay(7);
    locks::SpinLock::emitAcquire(as, 10, 0, locks::LockRegs{}, "lk");
    locks::SpinLock::emitRelease(as, 10, 0, locks::LockRegs{});
    as.halt();
    return as.finish();
}

/** Emit a loop that waits @p rounds x 1000 cycles. */
void
emitHold(Assembler &as, std::int64_t rounds)
{
    as.lhi(7, rounds);
    as.label("hold");
    as.lhi(4, 1000);
    as.delay(4);
    as.brct(7, "hold");
}

TEST(SpinReplay, RwReadersWaitOnWriter)
{
    Assembler writer;
    writer.la(10, 0, std::int64_t(lockAddr));
    locks::RwLock::emitWriteAcquire(writer, 10, 0, locks::LockRegs{},
                                    "wr");
    emitHold(writer, 30);
    locks::RwLock::emitWriteRelease(writer, 10, 0, locks::LockRegs{});
    writer.halt();
    const Program write_once = writer.finish();

    Assembler reader;
    reader.la(10, 0, std::int64_t(lockAddr));
    reader.lhi(7, 3000);
    reader.delay(7);
    reader.lhi(7, 3000);
    reader.delay(7);
    locks::RwLock::emitReadAcquire(reader, 10, 0, locks::LockRegs{},
                                   "rd");
    locks::RwLock::emitReadRelease(reader, 10, 0, locks::LockRegs{},
                                   "rr");
    reader.halt();
    const Program read_once = reader.finish();

    const Both b = runBoth(wideConfig(8), [&](sim::Machine &m) {
        m.setProgram(0, &write_once);
        for (unsigned c = 1; c < m.numCpus(); ++c)
            m.setProgram(c, &read_once);
        m.run();
        EXPECT_TRUE(m.allHalted());
    });
    EXPECT_EQ(b.off, b.on);
    EXPECT_GT(b.replayed, 0u);
}

/**
 * The lock line leaves the spinners through an L3 eviction: the
 * holder streams over more lines than its chip's tiny L3 holds, so
 * the L3 back-invalidates the spinners' copies with LRU XIs whose
 * requester is nobody.
 */
TEST(SpinReplay, WakeOnL3EvictionLruXi)
{
    Assembler holder;
    holder.la(10, 0, std::int64_t(lockAddr));
    locks::SpinLock::emitAcquire(holder, 10, 0, locks::LockRegs{}, "lk");
    holder.la(9, 0, std::int64_t(test::dataBase + 0x100000));
    holder.lhi(8, 1500);
    holder.label("stream");
    holder.lg(3, 9);
    holder.lhi(4, 300);
    holder.delay(4);
    holder.la(9, 9, std::int64_t(lineSizeBytes));
    holder.brct(8, "stream");
    locks::SpinLock::emitRelease(holder, 10, 0, locks::LockRegs{});
    holder.halt();
    const Program stream = holder.finish();
    const Program waiter = lockOnceProgram(3000);

    sim::MachineConfig cfg;
    cfg.topology = mem::Topology(4, 1, 1);
    cfg.geometry.l3 = {64 * lineSizeBytes * 4, 4}; // 64 rows x 4
    cfg.seed = 5;
    std::uint64_t waiter_xis = 0;
    const Both b = runBoth(cfg, [&](sim::Machine &m) {
        m.setProgram(0, &stream);
        for (unsigned c = 1; c < m.numCpus(); ++c)
            m.setProgram(c, &waiter);
        m.run();
        EXPECT_TRUE(m.allHalted());
        waiter_xis = m.cpu(1).stats().value("xi.received");
    });
    EXPECT_EQ(b.off, b.on);
    EXPECT_GT(b.replayed, 0u);
    // Three lock handoffs send a waiter at most three coherence XIs;
    // the rest are the L3's back-invalidations of the lock line.
    EXPECT_GT(waiter_xis, 3u);
}

/**
 * A spinner owns the lock line exclusively after a failed CS and
 * keeps replaying through the Demote XIs of later readers.
 */
TEST(SpinReplay, ExclusiveOwnerTakesDemoteXis)
{
    Assembler holder;
    holder.la(10, 0, std::int64_t(lockAddr));
    locks::SpinLock::emitAcquire(holder, 10, 0, locks::LockRegs{}, "lk");
    emitHold(holder, 40);
    locks::SpinLock::emitRelease(holder, 10, 0, locks::LockRegs{});
    holder.halt();
    const Program hold = holder.finish();

    Assembler loser;
    loser.la(10, 0, std::int64_t(lockAddr));
    loser.lhi(7, 3000);
    loser.delay(7);
    loser.lhi(1, 0);
    loser.lhi(2, 1);
    loser.cs(1, 2, 10); // fails: the line is ours, the lock is not
    locks::SpinLock::emitAcquire(loser, 10, 0, locks::LockRegs{}, "lk");
    locks::SpinLock::emitRelease(loser, 10, 0, locks::LockRegs{});
    loser.halt();
    const Program fail_cs = loser.finish();
    const Program late = lockOnceProgram(4000);

    sim::MachineConfig cfg;
    cfg.topology = mem::Topology(4, 1, 1);
    cfg.geometry.l3 = {8ULL << 20, 12};
    cfg.geometry.l4 = {32ULL << 20, 24};
    cfg.seed = 5;
    std::uint64_t demotes = 0;
    const Both b = runBoth(cfg, [&](sim::Machine &m) {
        m.setProgram(0, &hold);
        m.setProgram(1, &fail_cs);
        m.setProgram(2, &late);
        m.setProgram(3, &late);
        m.run();
        EXPECT_TRUE(m.allHalted());
        demotes = m.hierarchy().stats().value("xi.demote");
    });
    EXPECT_EQ(b.off, b.on);
    EXPECT_GT(b.replayed, 0u);
    EXPECT_GT(demotes, 0u);
}

/**
 * Replayed hits move the L1's LRU order. A 4-row, 2-way L1: the
 * waiter's loop reads lines V and X of one row, then the lock. A
 * toucher keeps rewriting V's value, so the waiter refetches V for
 * real and re-enters replay, whose hits then make X newer than V.
 * Leaving the loop, the waiter fills a third line W into that row:
 * the LRU victim must be V, so X still hits afterwards.
 */
TEST(SpinReplay, ReplayedHitsKeepLruOrder)
{
    constexpr Addr lineV = test::dataBase + 0x200; // row 2
    constexpr Addr lineX = test::dataBase + 0x600; // row 2
    constexpr Addr lineW = test::dataBase + 0xA00; // row 2

    Assembler holder;
    holder.la(10, 0, std::int64_t(lockAddr));
    locks::SpinLock::emitAcquire(holder, 10, 0, locks::LockRegs{}, "lk");
    emitHold(holder, 40);
    locks::SpinLock::emitRelease(holder, 10, 0, locks::LockRegs{});
    holder.halt();
    const Program hold = holder.finish();

    Assembler waiter;
    waiter.la(10, 0, std::int64_t(lockAddr));
    waiter.lhi(7, 3000);
    waiter.delay(7);
    waiter.lhi(11, 256);
    waiter.label("try");
    waiter.lg(5, 0, std::int64_t(lineV));
    waiter.lg(6, 0, std::int64_t(lineX));
    waiter.lt(1, 10);
    waiter.jz("cas");
    waiter.delay(11);
    waiter.j("try");
    waiter.label("cas");
    waiter.lhi(1, 0);
    waiter.lhi(2, 1);
    waiter.cs(1, 2, 10);
    waiter.jnz("try");
    waiter.lg(3, 0, std::int64_t(lineW));
    waiter.lg(3, 0, std::int64_t(lineX));
    locks::SpinLock::emitRelease(waiter, 10, 0, locks::LockRegs{});
    waiter.halt();
    const Program wait_v_x = waiter.finish();

    Assembler toucher;
    toucher.lhi(7, 4000);
    toucher.delay(7);
    toucher.lhi(8, 6);
    toucher.lhi(3, 0);
    toucher.label("touch");
    toucher.stg(3, 0, std::int64_t(lineV)); // same value, new owner
    toucher.lhi(7, 4000);
    toucher.delay(7);
    toucher.brct(8, "touch");
    toucher.halt();
    const Program touch_v = toucher.finish();

    sim::MachineConfig cfg;
    cfg.topology = mem::Topology(4, 1, 1);
    cfg.geometry.l1 = {4 * 2 * lineSizeBytes, 2};
    cfg.geometry.l3 = {8ULL << 20, 12};
    cfg.geometry.l4 = {32ULL << 20, 24};
    cfg.activeCpus = 3;
    cfg.seed = 5;
    std::uint64_t waiter_l1_hits = 0;
    const Both b = runBoth(cfg, [&](sim::Machine &m) {
        m.setProgram(0, &hold);
        m.setProgram(1, &wait_v_x);
        m.setProgram(2, &touch_v);
        m.run();
        EXPECT_TRUE(m.allHalted());
        waiter_l1_hits = m.hierarchy().stats().value("fetch.l1_hit");
    });
    EXPECT_EQ(b.off, b.on);
    EXPECT_GT(b.replayed, 0u);
    EXPECT_GT(waiter_l1_hits, 0u);
}

/**
 * Bounded windows that end at every phase of the spin iteration,
 * including inside its zero-cost (dispatch-grouped) step chains: the
 * two machines run in lockstep and must agree after every window.
 */
TEST(SpinReplay, BoundedWindowsEndMidIteration)
{
    workload::UpdateBenchConfig cfg;
    cfg.cpus = 8;
    cfg.method = SyncMethod::CoarseLock;
    cfg.poolSize = 10;
    cfg.varsPerOp = 4;
    cfg.iterations = 40;
    cfg.machine = wideConfig(cfg.cpus);
    const Program program = workload::buildUpdateProgram(cfg);
    sim::MachineConfig off_cfg = cfg.machine;
    off_cfg.spinFastForward = false;
    sim::Machine off(off_cfg);
    sim::Machine on(cfg.machine);
    off.setProgramAll(&program);
    on.setProgramAll(&program);
    unsigned windows = 0;
    for (Cycles k = 0; !off.allHalted(); ++k) {
        // Long enough to detect, record and replay; the odd stride
        // walks the end through every offset of a ~260-cycle period.
        const Cycles window = 1500 + (k * 37) % 263;
        EXPECT_EQ(off.run(window), on.run(window));
        ASSERT_EQ(machineState(off), machineState(on))
            << "after window " << k;
        ++windows;
    }
    EXPECT_TRUE(on.allHalted());
    EXPECT_GT(windows, 20u);
    EXPECT_GT(on.spinReplayedSteps(), 0u);
}

TEST(SpinReplayDeathTest, SpinnersThatCanNeverWakeAreFatal)
{
    // CPU 0 takes the lock and halts holding it.
    Assembler as;
    as.la(10, 0, std::int64_t(lockAddr));
    locks::SpinLock::emitAcquire(as, 10, 0, locks::LockRegs{}, "lk");
    as.halt();
    const Program take_and_halt = as.finish();
    const Program waiter = lockOnceProgram(3000);

    const auto build = [&](sim::Machine &m) {
        m.setProgram(0, &take_and_halt);
        m.setProgram(1, &waiter);
        m.setProgram(2, &waiter);
    };
    // Bounded runs return at the window's end, caught up exactly.
    const Both b = runBoth(test::smallConfig(3), [&](sim::Machine &m) {
        build(m);
        EXPECT_EQ(m.run(200000), 200000u);
    });
    EXPECT_EQ(b.off, b.on);
    EXPECT_GT(b.replayed, 0u);

    sim::Machine m(test::smallConfig(3));
    build(m);
    EXPECT_DEATH(m.run(), "spins forever.*cpu1@0x.*cpu2@0x");
}

} // namespace
