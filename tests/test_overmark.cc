/**
 * @file
 * Speculative over-marking of tx-read bits and the millicode
 * escalation stage that reduces speculation for constrained
 * retries (paper §III.C execution-time marking, §III.E escalation).
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>

#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using isa::Assembler;
using isa::Program;

TEST(Overmark, DisabledByDefault)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.tbegin(0xFF);
    as.jnz("out");
    for (int i = 0; i < 8; ++i)
        as.lg(1, 9, i * 256);
    as.tend();
    as.label("out");
    as.halt();
    const Program p = as.finish();
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run();
    EXPECT_EQ(m.cpu(0).stats().counter("tx.overmarks").value(), 0u);
}

TEST(Overmark, MarksNeighbouringLine)
{
    auto cfg = smallConfig(1);
    cfg.tm.speculativeOvermarkProb = 1.0;
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.tbegin(0xFF);
    as.jnz("out");
    as.lg(1, 9);
    as.label("spin");
    as.j("spin");
    as.label("out");
    as.halt();
    const Program p = as.finish();
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    for (int i = 0; i < 6; ++i)
        m.cpu(0).step();
    ASSERT_TRUE(m.cpu(0).inTx());
    EXPECT_TRUE(m.hierarchy().txRead(0, dataBase));
    EXPECT_TRUE(m.hierarchy().txRead(0, dataBase + 256));
    EXPECT_GE(m.cpu(0).stats().counter("tx.overmarks").value(), 1u);
}

TEST(Overmark, EscalationReducesSpeculationAndRecovers)
{
    // CPU1 hammers the line *next to* the one CPU0's constrained
    // transaction reads. With over-marking at probability 1 the
    // transaction keeps aborting on a line it never uses; after the
    // escalation threshold, millicode suppresses speculation and
    // the retry commits.
    auto cfg = smallConfig(2);
    cfg.tm.speculativeOvermarkProb = 1.0;

    Assembler c;
    c.la(9, 0, std::int64_t(dataBase));
    c.tbeginc(0x00);
    c.lg(1, 9); // over-marks dataBase + 256
    c.tend();
    c.halt();
    const Program constrained = c.finish();

    Assembler w;
    w.la(9, 0, std::int64_t(dataBase) + 256);
    w.lhi(8, 2000);
    w.lhi(1, 1);
    w.label("loop");
    w.stg(1, 9);
    w.brct(8, "loop");
    w.halt();
    const Program writer = w.finish();

    sim::Machine m(cfg);
    m.setProgram(0, &constrained);
    m.setProgram(1, &writer);
    m.run();
    ASSERT_TRUE(m.allHalted());
    EXPECT_EQ(m.cpu(0)
                  .stats()
                  .counter("tx.commits_constrained")
                  .value(),
              1u);
    EXPECT_GE(m.cpu(0).stats().counter("tx.aborts").value(), 2u);
    EXPECT_GE(m.cpu(0)
                  .stats()
                  .counter("millicode.speculation_reduced")
                  .value(),
              1u);
}

TEST(Overmark, SpeculationRestoredAfterSuccess)
{
    // After the constrained transaction finally commits, speculation
    // resumes for later transactions (the counter and flag reset).
    auto cfg = smallConfig(1);
    cfg.tm.speculativeOvermarkProb = 1.0;
    cfg.tm.constrainedSpeculationThreshold = 1;
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    // First constrained TX aborts once via TDC... instead force a
    // single abort with a diagnostic control on the first attempt:
    as.tbeginc(0x00);
    as.lg(1, 9);
    as.tend();
    // Second, separate transaction: must over-mark again.
    as.tbegin(0xFF);
    as.jnz("out");
    as.lg(2, 9, 4096);
    as.tend();
    as.label("out");
    as.halt();
    const Program p = as.finish();
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.run();
    EXPECT_GE(m.cpu(0).stats().counter("tx.overmarks").value(), 2u);
}

/**
 * Run @p p on one CPU whose L1 has geometry @p l1, over-marking on
 * every access, and check after every step each line's tx-read and
 * tx-dirty latches against a per-line reference: an access marks its
 * line (and its over-marked neighbour) read, a store marks its line
 * dirty, and a line leaving the L1 or the transaction ending drops
 * the marks. The marks go through the L1 slot each fetch returned.
 */
void
expectMarksOnAccessedLines(const mem::CacheGeometry &l1,
                           const Program &p)
{
    auto cfg = smallConfig(1);
    cfg.tm.speculativeOvermarkProb = 1.0;
    cfg.geometry.l1 = l1;
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    const core::Cpu &cpu = m.cpu(0);
    const mem::Hierarchy &hier = m.hierarchy();
    constexpr unsigned lines = 8;
    std::array<std::uint8_t, lines> ref{};
    const auto bit = [](Addr line) {
        return std::size_t((line - dataBase) / lineSizeBytes);
    };
    for (int step = 0; !cpu.halted(); ++step) {
        ASSERT_LT(step, 500);
        const Program::Slot *slot = p.fetch(cpu.psw().ia);
        ASSERT_NE(slot, nullptr);
        const isa::Instruction &inst = slot->inst;
        const Addr line =
            lineAlign(Addr(inst.disp) + (inst.base ? cpu.gr(inst.base)
                                                   : 0));
        m.cpu(0).step();
        if (inst.op == isa::Opcode::LG || inst.op == isa::Opcode::STG) {
            ref.at(bit(line)) |= mem::line_flag::txRead;
            ref.at(bit(line) + 1) |= mem::line_flag::txRead;
            if (inst.op == isa::Opcode::STG)
                ref.at(bit(line)) |= mem::line_flag::txDirty;
        }
        for (unsigned i = 0; i < lines; ++i) {
            const Addr x = dataBase + i * lineSizeBytes;
            if (!cpu.inTx() || !hier.inL1(0, x))
                ref[i] = 0;
            ASSERT_EQ(hier.txRead(0, x),
                      bool(ref[i] & mem::line_flag::txRead))
                << "step " << step << " line 0x" << std::hex << x;
            ASSERT_EQ(hier.txDirty(0, x),
                      bool(ref[i] & mem::line_flag::txDirty))
                << "step " << step << " line 0x" << std::hex << x;
        }
    }
    EXPECT_EQ(cpu.stats().value("tx.commits"), 3u);
    EXPECT_GT(cpu.stats().value("tx.overmarks"), 0u);
}

/** Three transactions of @p body, each opened by TBEGIN. */
Program
txLoop(const std::function<void(Assembler &)> &body)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(8, 3);
    as.label("loop");
    as.tbegin(0xFF);
    as.jnz("skip");
    body(as);
    as.tend();
    as.label("skip");
    as.brct(8, "loop");
    as.halt();
    return as.finish();
}

TEST(Overmark, MarksLandOnAccessedLinesWhenTheOvermarkDisplacesTheLoad)
{
    // One row of one way: each over-mark fill evicts the line its
    // load just marked, into the LRU extension.
    const Program p = txLoop([](Assembler &as) {
        as.lg(1, 9, 0);
        as.lg(2, 9, 3 * 256);
        as.lg(3, 9, 256);
        as.lg(4, 9, 5 * 256);
    });
    expectMarksOnAccessedLines({lineSizeBytes, 1}, p);
}

TEST(Overmark, StoreMarksLandOnAccessedLines)
{
    // Two rows of one way: an over-mark fill evicts the other row's
    // line, never the stored one.
    const Program p = txLoop([](Assembler &as) {
        as.lg(1, 9, 0);
        as.ahi(1, 1);
        as.stg(1, 9, 0);
        as.lg(2, 9, 3 * 256);
        as.stg(2, 9, 4 * 256);
        as.stg(1, 9, 256);
        as.lg(3, 9, 0);
    });
    expectMarksOnAccessedLines({2 * lineSizeBytes, 1}, p);
}

TEST(Overmark, DisplacedStoreLineAbortsTheTransaction)
{
    // One row of one way: the STG's over-mark fill evicts the line it
    // is about to mark tx-dirty. A tx-dirty mark needs the line in
    // the L1, so the transaction aborts (cache-store) instead of
    // marking an absent line.
    auto cfg = smallConfig(1);
    cfg.tm.speculativeOvermarkProb = 1.0;
    cfg.geometry.l1 = {lineSizeBytes, 1};
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.tbegin(0xFF);
    as.jnz("out");
    as.lg(1, 9);
    as.stg(1, 9);
    as.tend();
    as.label("out");
    as.halt();
    const Program p = as.finish();
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.run();
    ASSERT_TRUE(m.allHalted());
    const auto &stats = m.cpu(0).stats();
    EXPECT_EQ(stats.value("tx.commits"), 0u);
    EXPECT_EQ(stats.value("tx.aborts"), 1u);
    EXPECT_EQ(stats.value("tx.abort.cache-store"), 1u);
    EXPECT_EQ(m.peekMem(dataBase, 8), 0u);

    // A constrained retry commits once millicode stops speculating.
    Assembler c;
    c.la(9, 0, std::int64_t(dataBase));
    c.lhi(1, 7);
    c.tbeginc(0x00);
    c.stg(1, 9);
    c.tend();
    c.halt();
    const Program constrained = c.finish();
    sim::Machine mc(cfg);
    mc.setProgram(0, &constrained);
    mc.run();
    ASSERT_TRUE(mc.allHalted());
    EXPECT_EQ(mc.cpu(0).stats().value("tx.commits_constrained"), 1u);
    EXPECT_GE(mc.cpu(0).stats().value("tx.abort.cache-store"), 1u);
    EXPECT_EQ(mc.peekMem(dataBase, 8), 7u);
}

} // namespace
