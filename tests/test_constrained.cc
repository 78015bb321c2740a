/**
 * @file
 * Constrained transactions (paper §II.D): the programming
 * constraints, automatic retry at TBEGINC, the eventual-success
 * guarantee, and the millicode escalation ladder.
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

TEST(Constrained, SimpleCommit)
{
    const Program p = constrainedIncrementProgram(1);
    auto m = runProgram(p);
    EXPECT_EQ(m->peekMem(dataBase, 8), 1u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits_constrained"), 1u);
}

TEST(Constrained, TwoCpusNeverLoseAnIncrement)
{
    // The headline guarantee: constrained transactions need no
    // fallback path and still never lose an update.
    constexpr unsigned iters = 200;
    const Program p = constrainedIncrementProgram(iters);
    sim::Machine m(smallConfig(2));
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.run();
    EXPECT_TRUE(m.allHalted());
    EXPECT_EQ(m.peekMem(dataBase, 8), 2 * iters);
}

TEST(Constrained, FourCpusAcrossChipsNeverLoseAnIncrement)
{
    constexpr unsigned iters = 100;
    const Program p = constrainedIncrementProgram(iters);
    sim::Machine m(smallConfig(4)); // spans two chips
    for (unsigned i = 0; i < 4; ++i)
        m.setProgram(i, &p);
    m.run();
    EXPECT_TRUE(m.allHalted());
    EXPECT_EQ(m.peekMem(dataBase, 8), 4 * iters);
}

TEST(Constrained, AbortRetriesAtTbeginc)
{
    // Drive a constrained reader into its transaction, then make
    // another CPU write the line: the constrained TX aborts and the
    // PSW points back at the TBEGINC itself.
    Assembler c;
    c.la(9, 0, std::int64_t(dataBase));
    c.nop();
    c.label("tbc");
    c.tbeginc(0xFF);
    c.lg(1, 9);
    c.lg(2, 9, 512); // second access: window for the conflict
    c.tend();
    c.halt();
    const Program constrained = c.finish();

    Assembler w;
    w.la(9, 0, std::int64_t(dataBase));
    w.lhi(1, 5);
    w.stg(1, 9);
    w.halt();
    const Program writer = w.finish();

    sim::Machine m(smallConfig(2));
    m.setProgram(0, &constrained);
    m.setProgram(1, &writer);

    // Step CPU0 through LA/NOP/TBEGINC/first LG.
    for (int i = 0; i < 4; ++i)
        m.cpu(0).step();
    ASSERT_TRUE(m.cpu(0).inConstrainedTx());

    // CPU1 writes the tx-read line; CPU0 stiff-arms then aborts.
    int steps = 0;
    while (!m.cpu(1).halted() && steps++ < 200)
        m.cpu(1).step();
    ASSERT_FALSE(m.cpu(0).inTx());
    EXPECT_EQ(m.cpu(0).psw().ia, constrained.labelAddr("tbc"));

    // Let CPU0 finish: the retry must succeed.
    steps = 0;
    while (!m.cpu(0).halted() && steps++ < 500)
        m.cpu(0).step();
    EXPECT_TRUE(m.cpu(0).halted());
    EXPECT_EQ(m.cpu(0).gr(1), 5u);
}

/** Expect the program to be terminated with a constraint violation. */
void
expectViolation(const Program &p, const char *which)
{
    auto m = runProgram(p);
    EXPECT_TRUE(m->cpu(0).halted()) << which;
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::ConstraintViolation),
              1u)
        << which;
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 0u)
        << which;
}

TEST(Constrained, TooManyInstructionsViolates)
{
    Assembler as;
    as.tbeginc(0xFF);
    for (int i = 0; i < 33; ++i)
        as.nop();
    as.tend();
    as.halt();
    expectViolation(as.finish(), "instruction count");
}

TEST(Constrained, ThirtyTwoInstructionsCommit)
{
    Assembler as;
    as.tbeginc(0xFF);
    for (int i = 0; i < 32; ++i)
        as.nop();
    as.tend();
    as.halt();
    auto m = runProgram(as.finish());
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits_constrained"), 1u);
}

TEST(Constrained, TextFootprintBeyond256BytesViolates)
{
    Assembler as;
    as.tbeginc(0xFF);
    as.j("far");
    // Padding (never executed) pushing "far" past 256 bytes from
    // the TBEGINC.
    for (int i = 0; i < 140; ++i)
        as.nop();
    as.label("far");
    as.tend();
    as.halt();
    expectViolation(as.finish(), "text footprint");
}

TEST(Constrained, BackwardBranchViolates)
{
    Assembler as;
    as.lhi(1, 2);
    as.label("back");
    as.tbeginc(0xFF);
    as.nop();
    as.brct(1, "back"); // backward branch inside the TX
    as.tend();
    as.halt();
    expectViolation(as.finish(), "backward branch");
}

TEST(Constrained, RestrictedOperationViolates)
{
    Assembler as;
    as.lhi(1, 1);
    as.tbeginc(0xFF);
    as.ldgr(0, 1); // FP op: not in the constrained subset
    as.tend();
    as.halt();
    expectViolation(as.finish(), "restricted op");
}

TEST(Constrained, NtstgViolates)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 1);
    as.tbeginc(0xFF);
    as.ntstg(1, 9);
    as.tend();
    as.halt();
    expectViolation(as.finish(), "NTSTG");
}

TEST(Constrained, NestedTbeginViolates)
{
    Assembler as;
    as.tbeginc(0xFF);
    as.tbegin(0xFF);
    as.tend();
    as.tend();
    as.halt();
    expectViolation(as.finish(), "nested TBEGIN");
}

TEST(Constrained, DataFootprintFiveOctowordsViolates)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.tbeginc(0xFF);
    as.lg(1, 9, 0);
    as.lg(2, 9, 32);
    as.lg(3, 9, 64);
    as.lg(4, 9, 96);
    as.lg(5, 9, 128); // fifth distinct octoword
    as.tend();
    as.halt();
    expectViolation(as.finish(), "data footprint");
}

TEST(Constrained, FourOctowordsCommit)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.tbeginc(0xFF);
    as.lg(1, 9, 0);
    as.lg(2, 9, 32);
    as.lg(3, 9, 64);
    as.lg(4, 9, 96);
    as.lg(5, 9, 0); // repeat touches no new octoword
    as.tend();
    as.halt();
    auto m = runProgram(as.finish());
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits_constrained"), 1u);
}

TEST(Constrained, StraddlingAccessCountsBothOctowords)
{
    // An 8-byte access at offset 28 touches octowords 0 and 1.
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.tbeginc(0xFF);
    as.lg(1, 9, 28);
    as.lg(2, 9, 64);
    as.lg(3, 9, 96);
    as.lg(4, 9, 128); // would be the fifth octoword
    as.tend();
    as.halt();
    expectViolation(as.finish(), "straddle");
}

TEST(Constrained, TbegincInsideTbeginNestsAsNormal)
{
    // Paper §II.D: TBEGINC within a non-constrained transaction is
    // treated as a new non-constrained nesting level.
    Assembler as;
    as.tbegin(0xFF);
    as.jnz("out");
    as.tbeginc(0xFF);
    as.etnd(1); // depth 2, non-constrained semantics
    // A loop would violate constrained rules; here it must be fine.
    as.lhi(2, 2);
    as.label("loop");
    as.brct(2, "loop");
    as.tend();
    as.tend();
    as.label("out");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).gr(1), 2u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 1u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits_constrained"), 0u);
}

TEST(Constrained, TbegincImplicitFprControlBlocksFpOps)
{
    // TBEGINC has no F control; it reads as zero, so when nested
    // inside a TBEGIN that allowed FPR mods, the effective control
    // still blocks them.
    Assembler as;
    as.lhi(1, 1);
    as.tbegin(0xFF, {.allowFprMod = true});
    as.jnz("out");
    as.tbeginc(0xFF);
    as.ldgr(0, 1);
    as.tend();
    as.tend();
    as.label("out");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 0u);
    EXPECT_EQ(m->cpu(0).psw().cc, 3);
}

TEST(Constrained, EscalationDelaysUnderDiagnosticAborts)
{
    // TDC Random forces repeated constrained aborts; millicode's
    // escalating random delays must kick in, and the transaction
    // must still eventually succeed (TDC Always is treated as
    // Random for constrained TXs).
    const Program p = constrainedIncrementProgram(20);
    auto m = std::make_unique<sim::Machine>(smallConfig(1));
    m->cpu(0).tdcControl().mode = debug::TdcMode::Always;
    m->cpu(0).tdcControl().abortProbability = 0.4;
    m->setProgram(0, &p);
    m->run();
    EXPECT_TRUE(m->cpu(0).halted());
    EXPECT_EQ(m->peekMem(dataBase, 8), 20u);
    EXPECT_GT(m->cpu(0).stats().value("tx.aborts"), 0u);
    EXPECT_GT(m->cpu(0).stats().value("millicode.constrained_delays"), 0u);
}

TEST(Constrained, SoloModeLastResortEngages)
{
    const Program p = constrainedIncrementProgram(60);
    auto m = std::make_unique<sim::Machine>(smallConfig(2));
    // High diagnostic abort pressure on CPU 0 only.
    m->cpu(0).tdcControl().mode = debug::TdcMode::Random;
    m->cpu(0).tdcControl().abortProbability = 0.5;
    m->setProgram(0, &p);
    m->setProgram(1, &p);
    m->run();
    EXPECT_TRUE(m->allHalted());
    EXPECT_EQ(m->peekMem(dataBase, 8), 120u);
    // With p=0.5 per instruction over many aborts the 12-abort solo
    // threshold is reached (deterministic for the fixed seed).
    EXPECT_GT(m->cpu(0).stats().value("millicode.solo_requests"), 0u);
}

} // namespace
