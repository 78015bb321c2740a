/** @file Interpreter tests: arithmetic, branches, memory, CS. */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using isa::Assembler;
using isa::Program;

/** Run @p program on a fresh 1-CPU machine; returns the machine. */
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

TEST(CpuBasic, ImmediateAndRegisterMoves)
{
    Assembler as;
    as.lhi(1, 42);
    as.lr(2, 1);
    as.lhi(3, -7);
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).gr(1), 42u);
    EXPECT_EQ(m->cpu(0).gr(2), 42u);
    EXPECT_EQ(std::int64_t(m->cpu(0).gr(3)), -7);
    EXPECT_TRUE(m->cpu(0).halted());
}

TEST(CpuBasic, ArithmeticAndConditionCodes)
{
    Assembler as;
    as.lhi(1, 10);
    as.lhi(2, 3);
    as.agr(1, 2);  // 13, CC2
    as.sgr(1, 2);  // 10, CC2
    as.msgr(1, 2); // 30
    as.lhi(3, 30);
    as.sgr(1, 3);  // 0, CC0
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).gr(1), 0u);
    EXPECT_EQ(m->cpu(0).psw().cc, 0);
}

TEST(CpuBasic, LogicalOpsAndShifts)
{
    Assembler as;
    as.lhi(1, 0b1100);
    as.lhi(2, 0b1010);
    as.ngr(1, 2);     // 0b1000
    as.lhi(3, 0b0001);
    as.ogr(1, 3);     // 0b1001
    as.sllg(4, 1, 4); // 0b10010000
    as.srlg(5, 4, 2); // 0b100100
    as.xgr(4, 4);     // 0, CC0
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).gr(1), 0b1001u);
    EXPECT_EQ(m->cpu(0).gr(5), 0b100100u);
    EXPECT_EQ(m->cpu(0).gr(4), 0u);
    EXPECT_EQ(m->cpu(0).psw().cc, 0);
}

TEST(CpuBasic, LoadAddressArithmetic)
{
    Assembler as;
    as.lhi(2, 0x100);
    as.lhi(3, 0x10);
    as.la(1, 2, 8, 3); // 0x100 + 0x10 + 8
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).gr(1), 0x118u);
}

TEST(CpuBasic, StoreThenLoadRoundTrip)
{
    Assembler as;
    as.lhi(1, 1234);
    as.lhi(2, 0);
    as.la(2, 0, std::int64_t(dataBase));
    as.stg(1, 2);
    as.lg(3, 2);
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).gr(3), 1234u);
    EXPECT_EQ(m->peekMem(dataBase, 8), 1234u);
}

TEST(CpuBasic, LoadAndTestSetsCc)
{
    Assembler as;
    as.la(2, 0, std::int64_t(dataBase));
    as.lt(1, 2); // memory is zero -> CC0
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).gr(1), 0u);
    EXPECT_EQ(m->cpu(0).psw().cc, 0);
}

TEST(CpuBasic, ConditionalBranchTaken)
{
    Assembler as;
    as.lhi(1, 5);
    as.cghi(1, 5); // CC0
    as.jz("skip");
    as.lhi(2, 111);
    as.label("skip");
    as.lhi(3, 222);
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).gr(2), 0u);
    EXPECT_EQ(m->cpu(0).gr(3), 222u);
}

TEST(CpuBasic, LoopWithBrct)
{
    Assembler as;
    as.lhi(1, 10); // counter
    as.lhi(2, 0);  // accumulator
    as.label("loop");
    as.ahi(2, 3);
    as.brct(1, "loop");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).gr(2), 30u);
    EXPECT_EQ(m->cpu(0).gr(1), 0u);
}

TEST(CpuBasic, CompareImmediateAndJump)
{
    Assembler as;
    as.lhi(1, 7);
    as.cijnl(1, 6, "big"); // 7 >= 6 -> branch
    as.lhi(2, 1);
    as.label("big");
    as.lhi(3, 9);
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).gr(2), 0u);
    EXPECT_EQ(m->cpu(0).gr(3), 9u);
}

TEST(CpuBasic, CompareAndSwapSuccess)
{
    Assembler as;
    as.la(2, 0, std::int64_t(dataBase));
    as.lhi(1, 0);   // expected old value
    as.lhi(3, 77);  // new value
    as.cs(1, 3, 2);
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).psw().cc, 0);
    EXPECT_EQ(m->peekMem(dataBase, 8), 77u);
}

TEST(CpuBasic, CompareAndSwapFailureLoadsCurrent)
{
    Assembler as;
    as.la(2, 0, std::int64_t(dataBase));
    as.lhi(1, 5);  // wrong expectation
    as.lhi(3, 77);
    as.cs(1, 3, 2);
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p, [](sim::Machine &mm) {
        mm.memory().write(dataBase, 42, 8);
    });
    EXPECT_EQ(m->cpu(0).psw().cc, 1);
    EXPECT_EQ(m->cpu(0).gr(1), 42u); // loaded the actual value
    EXPECT_EQ(m->peekMem(dataBase, 8), 42u);
}

TEST(CpuBasic, DivideWorks)
{
    Assembler as;
    as.lhi(1, 42);
    as.lhi(2, 6);
    as.dsgr(1, 2);
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).gr(1), 7u);
}

TEST(CpuBasic, DivideByZeroOutsideTxTerminates)
{
    Assembler as;
    as.lhi(1, 42);
    as.lhi(2, 0);
    as.dsgr(1, 2);
    as.lhi(3, 1); // never reached
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_TRUE(m->cpu(0).halted());
    EXPECT_EQ(m->cpu(0).gr(3), 0u);
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::FixedPointDivide),
              1u);
}

TEST(CpuBasic, FprAndArMoves)
{
    Assembler as;
    as.lhi(1, 99);
    as.ldgr(2, 1); // fpr2 = 99 (raw bits)
    as.sar(3, 1);  // ar3 = 99
    as.ear(4, 3);  // gr4 = ar3
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).fpr(2), 99u);
    EXPECT_EQ(m->cpu(0).ar(3), 99u);
    EXPECT_EQ(m->cpu(0).gr(4), 99u);
}

TEST(CpuBasic, StckReadsAdvancingClock)
{
    Assembler as;
    as.stck(1);
    as.la(9, 0, std::int64_t(dataBase)); // some work
    as.lg(5, 9);
    as.stck(2);
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_GT(m->cpu(0).gr(2), m->cpu(0).gr(1));
}

TEST(CpuBasic, RandStaysBounded)
{
    Assembler as;
    as.lhi(5, 0);
    as.lhi(1, 100); // loop count
    as.label("loop");
    as.rnd(2, 10);
    as.agr(5, 2);
    as.brct(1, "loop");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    // Sum of 100 draws from [0,10): strictly less than 1000 and
    // (overwhelmingly) more than 100.
    EXPECT_LT(m->cpu(0).gr(5), 1000u);
    EXPECT_GT(m->cpu(0).gr(5), 100u);
}

TEST(CpuBasic, RegionMeasurement)
{
    Assembler as;
    as.markb();
    as.la(9, 0, std::int64_t(dataBase));
    as.lg(1, 9);
    as.marke();
    as.markb();
    as.lg(1, 9);
    as.marke();
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    const Histogram &regions = m->cpu(0).regionCycles();
    EXPECT_EQ(regions.total(), 2u);
    EXPECT_GT(regions.sum(), 0.0);
    // Second region is an L1 hit: cheaper than the cold first one,
    // which misses all the way out (64-cycle buckets).
    EXPECT_EQ(regions.bucketCount(0), 1u);
}

TEST(CpuBasic, InvalidOpcodeTerminates)
{
    Assembler as;
    as.invalidOp();
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_TRUE(m->cpu(0).halted());
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::Operation), 1u);
}

TEST(CpuBasic, PageFaultResolvedByOsAndRetried)
{
    Assembler as;
    as.la(2, 0, std::int64_t(dataBase));
    as.lg(1, 2);
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p, [](sim::Machine &mm) {
        mm.memory().write(dataBase, 55, 8);
        mm.pageTable().markAbsent(dataBase);
    });
    EXPECT_TRUE(m->cpu(0).halted());
    EXPECT_EQ(m->cpu(0).gr(1), 55u); // retry after page-in succeeded
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::PageFault), 1u);
}

TEST(CpuBasic, CompareAndSwapPageFaultStoresNothing)
{
    Assembler as;
    as.la(2, 0, std::int64_t(dataBase));
    as.lhi(1, 0);
    as.lhi(3, 77);
    as.cs(1, 3, 2);
    as.halt();
    const Program p = as.finish();
    sim::Machine m(smallConfig(1));
    m.pageTable().markAbsent(dataBase);
    m.setProgram(0, &p);
    for (int i = 0; i < 3; ++i)
        m.cpu(0).step();
    const Addr cs_ia = m.cpu(0).psw().ia;

    // The faulting CS does not complete and stores nothing; the OS
    // pages the target in.
    m.cpu(0).step();
    EXPECT_EQ(m.os().countOf(tx::InterruptCode::PageFault), 1u);
    EXPECT_EQ(m.os().records().back().addr, dataBase);
    EXPECT_EQ(m.cpu(0).psw().ia, cs_ia);
    EXPECT_EQ(m.cpu(0).stats().value("instructions"), 3u);
    EXPECT_EQ(m.peekMem(dataBase, 8), 0u);

    // The retried CS then swaps.
    int steps = 0;
    while (!m.cpu(0).halted() && steps++ < 10)
        m.cpu(0).step();
    ASSERT_TRUE(m.cpu(0).halted());
    EXPECT_EQ(m.cpu(0).psw().cc, 0);
    EXPECT_EQ(m.peekMem(dataBase, 8), 77u);
    EXPECT_EQ(m.os().countOf(tx::InterruptCode::PageFault), 1u);
}

TEST(CpuBasic, DelayCostsCycles)
{
    Assembler as;
    as.stck(1);
    as.lhi(2, 500);
    as.delay(2);
    as.stck(3);
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_GE(m->cpu(0).gr(3) - m->cpu(0).gr(1), 500u);
}

// The CPU runs the slot after the one it executed without a program
// lookup when the PSW points at it; everything below must still see
// the instruction at the PSW's address.

TEST(CpuNextSlot, SetProgramRunsTheNewProgramsInstruction)
{
    // a's second instruction and b's first share an address.
    Assembler as_a(0x10'0000);
    as_a.lhi(1, 1);
    as_a.lhi(2, 2);
    as_a.halt();
    const Program a = as_a.finish();
    Assembler as_b(a.slots().at(1).addr);
    as_b.lhi(2, 99);
    as_b.halt();
    const Program b = as_b.finish();
    ASSERT_EQ(b.entry(), a.slots().at(1).addr);

    sim::Machine m(smallConfig(1));
    m.setProgram(0, &a);
    m.cpu(0).step();
    ASSERT_EQ(m.cpu(0).gr(1), 1u);
    m.setProgram(0, &b);
    m.cpu(0).step();
    EXPECT_EQ(m.cpu(0).gr(2), 99u);
    m.cpu(0).step();
    EXPECT_TRUE(m.cpu(0).halted());
}

TEST(CpuNextSlot, TakenBranchSkipsTheFollowingSlot)
{
    Assembler as;
    as.lhi(1, 0);
    as.lhi(3, 3);
    as.label("loop");
    as.ahi(1, 1);
    as.j("over");
    as.ahi(1, 100); // never runs
    as.label("over");
    as.brct(3, "loop");
    as.ahi(1, 1000);
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_TRUE(m->cpu(0).halted());
    EXPECT_EQ(m->cpu(0).gr(1), 1003u);
}

TEST(CpuNextSlot, ProgramInterruptRetriesTheFaultingSlot)
{
    Assembler as;
    as.la(2, 0, std::int64_t(dataBase));
    as.lg(1, 2);
    as.ahi(1, 1);
    as.halt();
    const Program p = as.finish();
    sim::Machine m(smallConfig(1));
    m.memory().write(dataBase, 55, 8);
    m.pageTable().markAbsent(dataBase);
    m.setProgram(0, &p);
    m.cpu(0).step();
    const Addr lg_ia = m.cpu(0).psw().ia;
    m.cpu(0).step(); // faults; the OS pages the operand in
    EXPECT_EQ(m.os().countOf(tx::InterruptCode::PageFault), 1u);
    EXPECT_EQ(m.cpu(0).psw().ia, lg_ia);
    m.cpu(0).step(); // the LG again, not the AHI after it
    EXPECT_EQ(m.cpu(0).gr(1), 55u);
    m.cpu(0).step();
    EXPECT_EQ(m.cpu(0).gr(1), 56u);
    m.cpu(0).step();
    EXPECT_TRUE(m.cpu(0).halted());
}

TEST(CpuNextSlot, AbortResumesAfterTheTbegin)
{
    Assembler as;
    as.lhi(5, 0);
    as.tbegin(0x00); // GR 5 keeps its in-transaction value
    as.jnz("aborted");
    as.lhi(5, 1);
    as.tabort(0, 256);
    as.lhi(5, 2); // never runs: the abort leaves the transaction
    as.tend();
    as.halt();
    as.label("aborted");
    as.ahi(5, 10);
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_TRUE(m->cpu(0).halted());
    EXPECT_EQ(m->cpu(0).gr(5), 11u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.aborts"), 1u);
}

TEST(CpuNextSlot, FallingOffTheLastInstructionIsAnOperationException)
{
    Assembler as;
    as.lhi(1, 1);
    as.lhi(2, 2);
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_TRUE(m->cpu(0).halted());
    EXPECT_EQ(m->cpu(0).gr(2), 2u);
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::Operation), 1u);
    EXPECT_EQ(m->os().records().back().addr,
              p.slots().back().addr + p.slots().back().length);
}

} // namespace
