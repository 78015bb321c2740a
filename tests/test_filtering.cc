/**
 * @file
 * Program-interruption filtering (paper §II.C): PIFC semantics per
 * exception group, nesting (max), the never-filter rules for
 * instruction fetch and constrained transactions, and the pitfall
 * the paper warns about (a filtered page fault never gets resolved
 * unless the fallback path touches the page).
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "tx/tdb.hh"
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

/**
 * A transaction that divides GR1 by GR2 with the given PIFC; the
 * handler gives up immediately and records CC in GR6.
 */
Program
divideTxProgram(std::uint8_t pifc)
{
    Assembler as;
    as.lhi(1, 42);
    as.lhi(2, 0);
    as.tbegin(0xFF, {.pifc = pifc});
    as.jnz("handler");
    as.dsgr(1, 2);
    as.tend();
    as.label("handler");
    as.halt();
    return as.finish();
}

TEST(Filtering, UnfilteredArithmeticGoesToOs)
{
    auto m = runProgram(divideTxProgram(0));
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::FixedPointDivide),
              1u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.abort.program-interrupt"), 1u);
    // Transient: the program-old PSW carries CC2 (paper §II.C).
    EXPECT_EQ(m->cpu(0).psw().cc, 2);
    EXPECT_TRUE(m->os().records()[0].fromTx);
}

TEST(Filtering, Pifc1FiltersArithmetic)
{
    auto m = runProgram(divideTxProgram(1));
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::FixedPointDivide),
              0u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.abort.filtered-program-interrupt"),
              1u);
    EXPECT_EQ(m->cpu(0).psw().cc, 2);
}

TEST(Filtering, Pifc2FiltersArithmeticToo)
{
    auto m = runProgram(divideTxProgram(2));
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::FixedPointDivide),
              0u);
}

TEST(Filtering, DecimalDataFilteredAtPifc1)
{
    Assembler as;
    as.lhi(1, 0xF); // invalid decimal digit
    as.lhi(2, 1);
    as.tbegin(0xFF, {.pifc = 1});
    as.jnz("handler");
    as.ap(1, 2);
    as.tend();
    as.label("handler");
    as.halt();
    auto m = runProgram(as.finish());
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::DecimalData), 0u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.abort.filtered-program-interrupt"),
              1u);
}

/** TX page-fault program: loads from dataBase inside the TX. */
Program
pageFaultTxProgram(std::uint8_t pifc, bool fallback_touches_page)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(0, 0); // retry count
    as.label("loop");
    as.tbegin(0xFF, {.pifc = pifc});
    as.jnz("handler");
    as.lg(1, 9);
    as.tend();
    as.j("done");
    as.label("handler");
    as.ahi(0, 1);
    as.cijnl(0, 6, "fallback");
    as.j("loop");
    as.label("fallback");
    if (fallback_touches_page)
        as.lg(1, 9); // non-transactional access resolves the fault
    as.label("done");
    as.halt();
    return as.finish();
}

TEST(Filtering, Pifc1DoesNotFilterPageFaults)
{
    // Group 3 needs PIFC 2; at PIFC 1 the OS sees the fault, pages
    // in, and the immediate retry succeeds.
    auto m = runProgram(pageFaultTxProgram(1, false),
                        [](sim::Machine &mm) {
                            mm.memory().write(dataBase, 9, 8);
                            mm.pageTable().markAbsent(dataBase);
                        });
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::PageFault), 1u);
    EXPECT_EQ(m->cpu(0).gr(1), 9u);
    EXPECT_EQ(m->cpu(0).gr(0), 1u); // exactly one retry
}

TEST(Filtering, Pifc2FilteredFaultNeedsFallbackToResolve)
{
    // The paper's §II.C pitfall: a filtered page fault is never
    // reported, so the transaction keeps aborting until the
    // fallback path touches the page non-transactionally.
    auto m = runProgram(pageFaultTxProgram(2, true),
                        [](sim::Machine &mm) {
                            mm.memory().write(dataBase, 9, 8);
                            mm.pageTable().markAbsent(dataBase);
                        });
    // 6 filtered aborts, no TX page-fault reports, then the
    // fallback's plain LG faults into the OS once and resolves.
    EXPECT_EQ(m->cpu(0).gr(0), 6u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.abort.filtered-program-interrupt"),
              6u);
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::PageFault), 1u);
    EXPECT_FALSE(m->os().records()[0].fromTx);
    EXPECT_EQ(m->cpu(0).gr(1), 9u);
}

TEST(Filtering, NestedPifcIsMax)
{
    // Outer PIFC 0, inner PIFC 1: the effective control is 1, so
    // the divide exception is filtered.
    Assembler as;
    as.lhi(1, 42);
    as.lhi(2, 0);
    as.tbegin(0xFF, {.pifc = 0});
    as.jnz("handler");
    as.tbegin(0xFF, {.pifc = 1});
    as.jnz("handler");
    as.dsgr(1, 2);
    as.tend();
    as.tend();
    as.label("handler");
    as.halt();
    auto m = runProgram(as.finish());
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::FixedPointDivide),
              0u);
}

TEST(Filtering, InstructionFetchFaultsNeverFiltered)
{
    // Mark the page holding part of the transaction body absent:
    // even at PIFC 2 the ifetch fault must reach the OS (which
    // pages the text in so the retry can run).
    Assembler as;
    as.lhi(0, 0);
    as.label("loop");
    as.tbegin(0xFF, {.pifc = 2});
    as.jnz("handler");
    // Body landing on the next page (pad across the 4K boundary).
    for (int i = 0; i < 2100; ++i)
        as.nop();
    as.lhi(3, 77);
    as.tend();
    as.j("done");
    as.label("handler");
    as.ahi(0, 1);
    as.cijnl(0, 6, "done");
    as.j("loop");
    as.label("done");
    as.halt();
    const Program p = as.finish();
    // The LHI(3,77) sits well past the first page of the program.
    const Addr far_addr = p.labelAddr("done") - 8;
    auto m = runProgram(p, [&](sim::Machine &mm) {
        mm.pageTable().markAbsent(far_addr);
    });
    EXPECT_EQ(m->cpu(0).gr(3), 77u);
    EXPECT_GE(m->os().countOf(tx::InterruptCode::PageFault), 1u);
}

TEST(Filtering, ConstrainedTransactionsNeverFilter)
{
    // All exceptions in a constrained TX interrupt into the OS
    // (implicit PIFC 0); the OS pages in and the retry succeeds.
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.tbeginc(0xFF);
    as.lg(1, 9);
    as.tend();
    as.halt();
    auto m = runProgram(as.finish(), [](sim::Machine &mm) {
        mm.memory().write(dataBase, 3, 8);
        mm.pageTable().markAbsent(dataBase);
    });
    EXPECT_TRUE(m->cpu(0).halted());
    EXPECT_EQ(m->cpu(0).gr(1), 3u);
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::PageFault), 1u);
    EXPECT_TRUE(m->os().records()[0].fromConstrained);
}

TEST(Filtering, TdbAccessibilityTestedAtTbegin)
{
    // TBEGIN performs an accessibility test for the TDB (paper
    // §III.B): a fault on the TDB page is taken before the
    // transaction starts, the OS resolves it, and the TBEGIN
    // re-executes.
    constexpr Addr tdb_addr = dataBase + 0x2000;
    Assembler as;
    as.la(8, 0, std::int64_t(tdb_addr));
    as.tbegin(0xFF, {.tdbBase = 8});
    as.jnz("handler");
    as.lhi(1, 5);
    as.tend();
    as.label("handler");
    as.halt();
    auto m = runProgram(as.finish(), [&](sim::Machine &mm) {
        mm.pageTable().markAbsent(tdb_addr);
    });
    EXPECT_EQ(m->cpu(0).gr(1), 5u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 1u);
    EXPECT_EQ(m->os().countOf(tx::InterruptCode::PageFault), 1u);
    EXPECT_FALSE(m->os().records()[0].fromTx);
}

TEST(Filtering, PrefixAreaTdbCopyOnProgramInterrupt)
{
    // On an abort caused by an (unfiltered) program interruption, a
    // second TDB copy lands in the CPU prefix area (paper §II.E.1).
    auto m = runProgram(divideTxProgram(0));
    const tx::Tdb prefix =
        tx::Tdb::load(m->memory(), m->cpu(0).prefixTdbAddr());
    EXPECT_EQ(prefix.interruptCode,
              tx::InterruptCode::FixedPointDivide);
    EXPECT_EQ(prefix.abortCode,
              std::uint64_t(tx::AbortReason::ProgramInterrupt));
}

} // namespace
