/**
 * @file
 * Debug architecture: PER (ranges, TX event suppression, the TEND
 * event), the Transaction Diagnostic Control random/forced aborts,
 * and the OS policies around them (paper §II.E).
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using isa::Assembler;
using isa::Program;

/** Lock-elision-style loop: TX increment with lock fallback. */
Program
elisionProgram(unsigned iterations)
{
    constexpr std::int64_t lock_off = 0x2000;
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));     // data
    as.la(10, 0, std::int64_t(dataBase) + lock_off); // lock line
    as.lhi(8, std::int64_t(iterations));
    as.label("next");
    as.lhi(0, 0); // retry counter
    as.label("loop");
    as.tbegin(0xFF);
    as.jnz("abort");
    as.lt(1, 10); // lock must be free
    as.jnz("lockbusy");
    as.lg(1, 9);
    as.ahi(1, 1);
    as.stg(1, 9);
    as.tend();
    as.j("iter_done");
    as.label("lockbusy");
    as.tabort(0, 256);
    as.label("abort");
    as.jo("fallback"); // CC3: permanent
    as.ahi(0, 1);
    as.cijnl(0, 6, "fallback");
    as.ppa(0);
    as.j("loop");
    as.label("fallback");
    // Single-CPU tests: the lock is always free; take it, update,
    // release.
    as.lhi(1, 0);
    as.lhi(2, 1);
    as.cs(1, 2, 10);
    as.jnz("fallback");
    as.lg(1, 9);
    as.ahi(1, 1);
    as.stg(1, 9);
    as.lhi(1, 0);
    as.stg(1, 10);
    as.label("iter_done");
    as.brct(8, "next");
    as.halt();
    return as.finish();
}

std::unique_ptr<sim::Machine>
runProgram(const Program &program,
           std::function<void(sim::Machine &)> setup = {})
{
    auto m = std::make_unique<sim::Machine>(smallConfig(1));
    if (setup)
        setup(*m);
    m->setProgram(0, &program);
    m->run();
    return m;
}

TEST(Per, StoreEventOutsideTxInterruptsAndResumes)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 5);
    as.stg(1, 9);       // watched
    as.stg(1, 9, 4096); // not watched
    as.halt();
    auto m = runProgram(as.finish(), [](sim::Machine &mm) {
        auto &per = mm.cpu(0).perControls();
        per.storeRange = {true, dataBase, dataBase + 255};
    });
    EXPECT_TRUE(m->cpu(0).halted());
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::PerEvent), 1u);
    EXPECT_EQ(m->peekMem(dataBase, 8), 5u); // store completed
}

TEST(Per, CompareAndSwapStoreRaisesOneEvent)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 0);
    as.lhi(3, 7);
    as.cs(1, 3, 9); // compare succeeds: stores into the range
    as.halt();
    auto m = runProgram(as.finish(), [](sim::Machine &mm) {
        auto &per = mm.cpu(0).perControls();
        per.storeRange = {true, dataBase, dataBase + 255};
    });
    EXPECT_TRUE(m->cpu(0).halted());
    EXPECT_EQ(m->cpu(0).psw().cc, 0);
    ASSERT_EQ(m->os().countOf(tx::InterruptCode::PerEvent), 1u);
    EXPECT_EQ(m->os().records().back().addr, dataBase);
    EXPECT_EQ(m->peekMem(dataBase, 8), 7u);
}

TEST(Per, CompareAndSwapFailedCompareRaisesNoEvent)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 5); // wrong expectation: CS stores nothing
    as.lhi(3, 7);
    as.cs(1, 3, 9);
    as.halt();
    auto m = runProgram(as.finish(), [](sim::Machine &mm) {
        mm.memory().write(dataBase, 42, 8);
        auto &per = mm.cpu(0).perControls();
        per.storeRange = {true, dataBase, dataBase + 255};
    });
    EXPECT_TRUE(m->cpu(0).halted());
    EXPECT_EQ(m->cpu(0).psw().cc, 1);
    EXPECT_EQ(m->cpu(0).gr(1), 42u);
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::PerEvent), 0u);
    EXPECT_EQ(m->peekMem(dataBase, 8), 42u);
}

TEST(Per, StoreEventInsideTxAbortsThenFallbackCompletes)
{
    auto m = runProgram(elisionProgram(1), [](sim::Machine &mm) {
        auto &per = mm.cpu(0).perControls();
        per.storeRange = {true, dataBase, dataBase + 255};
    });
    EXPECT_TRUE(m->cpu(0).halted());
    EXPECT_EQ(m->peekMem(dataBase, 8), 1u);
    // Every transactional attempt aborted on the PER event; the
    // update went through the fallback lock.
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 0u);
    EXPECT_GT(m->os().countOf(tx::InterruptCode::PerEvent), 0u);
}

TEST(Per, EventSuppressionLetsTransactionsComplete)
{
    auto m = runProgram(elisionProgram(5), [](sim::Machine &mm) {
        auto &per = mm.cpu(0).perControls();
        per.storeRange = {true, dataBase, dataBase + 255};
        per.suppressInTx = true;
    });
    EXPECT_EQ(m->peekMem(dataBase, 8), 5u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 5u);
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::PerEvent), 0u);
}

TEST(Per, TendEventFiresOnOutermostCompletion)
{
    auto m = runProgram(elisionProgram(3), [](sim::Machine &mm) {
        auto &per = mm.cpu(0).perControls();
        per.suppressInTx = true;
        per.tendEvent = true;
    });
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 3u);
    // One PER TEND event per successful outermost TEND.
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::PerEvent), 3u);
    EXPECT_EQ(m->peekMem(dataBase, 8), 3u);
}

TEST(Per, IfetchEventOutsideTx)
{
    Assembler as;
    as.lhi(1, 1);
    as.label("watched");
    as.lhi(2, 2);
    as.halt();
    const Program p = as.finish();
    const Addr watch = p.labelAddr("watched");
    auto m = runProgram(p, [&](sim::Machine &mm) {
        mm.cpu(0).perControls().ifetchRange = {true, watch, watch};
    });
    EXPECT_TRUE(m->cpu(0).halted());
    EXPECT_EQ(m->cpu(0).gr(2), 2u);
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::PerEvent), 1u);
}

TEST(Per, ConstrainedAutoSuppressionPolicy)
{
    // A constrained TX storing into a watched range aborts on the
    // PER event; the OS policy enables suppression so the retry can
    // complete (paper §II.E.2).
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 7);
    as.tbeginc(0xFF);
    as.stg(1, 9);
    as.tend();
    as.halt();
    auto m = runProgram(as.finish(), [](sim::Machine &mm) {
        mm.cpu(0).perControls().storeRange =
            {true, dataBase, dataBase + 255};
        mm.os().autoSuppressPerForConstrained = true;
    });
    EXPECT_TRUE(m->cpu(0).halted());
    EXPECT_EQ(m->peekMem(dataBase, 8), 7u);
    EXPECT_GE(m->os().countOf(tx::InterruptCode::PerEvent), 1u);
    EXPECT_TRUE(m->cpu(0).perControls().suppressInTx);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits_constrained"), 1u);
}

TEST(Tdc, RandomAbortsExerciseRetryPath)
{
    auto m = runProgram(elisionProgram(50), [](sim::Machine &mm) {
        mm.cpu(0).tdcControl().mode = debug::TdcMode::Random;
        mm.cpu(0).tdcControl().abortProbability = 0.05;
    });
    EXPECT_EQ(m->peekMem(dataBase, 8), 50u);
    EXPECT_GT(m->cpu(0).stats().value("tx.abort.diagnostic"), 0u);
}

TEST(Tdc, AlwaysModeForcesFallbackPath)
{
    // Mode 2 aborts every transaction at latest before the
    // outermost TEND: zero commits, all updates via the fallback.
    auto m = runProgram(elisionProgram(10), [](sim::Machine &mm) {
        mm.cpu(0).tdcControl().mode = debug::TdcMode::Always;
        mm.cpu(0).tdcControl().abortProbability = 0.02;
    });
    EXPECT_EQ(m->peekMem(dataBase, 8), 10u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 0u);
    EXPECT_GE(m->cpu(0).stats().value("tx.abort.diagnostic"), 10u);
}

TEST(Tdc, OffMeansNoDiagnosticAborts)
{
    auto m = runProgram(elisionProgram(20));
    EXPECT_EQ(m->cpu(0).stats().value("tx.abort.diagnostic"), 0u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 20u);
}

TEST(ExternalInterrupts, AbortTransactionsButWorkCompletes)
{
    auto cfg = smallConfig(1);
    cfg.externalInterruptPeriod = 400; // aggressive timer
    const Program p = elisionProgram(50);
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.run();
    EXPECT_TRUE(m.allHalted());
    EXPECT_EQ(m.peekMem(dataBase, 8), 50u);
    EXPECT_GT(m.cpu(0).stats().value("external_interrupts"), 0u);
}

} // namespace
