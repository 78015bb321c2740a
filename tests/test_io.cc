/**
 * @file
 * The I/O subsystem as a coherence participant: DMA transfers, and
 * the architected isolation between transactions and I/O in both
 * directions (paper §II.A).
 */

#include <gtest/gtest.h>

#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using isa::Assembler;
using isa::Program;

sim::MachineConfig
ioConfig(unsigned cpus)
{
    auto cfg = smallConfig(cpus);
    cfg.enableIo = true; // occupies topology slot 7
    return cfg;
}

TEST(IoSubsystem, DmaWriteReachesMemory)
{
    sim::Machine m(ioConfig(1));
    m.io().submit({.write = true, .addr = dataBase, .length = 1024,
                   .pattern = 0xAB});
    m.drainIo();
    EXPECT_TRUE(m.io().idle());
    EXPECT_EQ(m.io().completed(), 1u);
    EXPECT_EQ(m.memory().readByte(dataBase), 0xAB);
    EXPECT_EQ(m.memory().readByte(dataBase + 1023), 0xAB);
    EXPECT_EQ(m.memory().readByte(dataBase + 1024), 0x00);
}

TEST(IoSubsystem, DmaDoesNotObservePendingTxStores)
{
    // A CPU stores transactionally; an I/O read of the line must
    // see the pre-transaction value (isolation toward I/O).
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 99);
    as.tbegin(0xFF);
    as.jnz("done");
    as.stg(1, 9);
    as.label("spin");
    as.j("spin");
    as.label("done");
    as.halt();
    const Program p = as.finish();

    sim::Machine m(ioConfig(1));
    m.memory().write(dataBase, 7, 8);
    m.setProgram(0, &p);
    for (int i = 0; i < 8; ++i)
        m.cpu(0).step();
    ASSERT_TRUE(m.cpu(0).inTx());

    // The device reads the line: the CPU stiff-arms for a while
    // (bounded), but memory never shows 99 before commit/abort.
    m.io().submit({.write = false, .addr = dataBase, .length = 8});
    for (int i = 0; i < 300 && !m.io().idle(); ++i)
        m.io().pump();
    EXPECT_EQ(m.io().deviceRead(dataBase, 8), 7u);
}

TEST(IoSubsystem, DmaWriteAbortsConflictingTransaction)
{
    // Strong atomicity toward I/O: a DMA write into a line that a
    // transaction has read aborts the transaction.
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.tbegin(0xFF);
    as.jnz("done");
    as.lg(1, 9);
    as.label("spin");
    as.j("spin");
    as.label("done");
    as.halt();
    const Program p = as.finish();

    sim::Machine m(ioConfig(1));
    m.setProgram(0, &p);
    for (int i = 0; i < 6; ++i)
        m.cpu(0).step();
    ASSERT_TRUE(m.cpu(0).inTx());

    m.io().submit({.write = true, .addr = dataBase, .length = 8,
                   .pattern = 0x55});
    for (int i = 0; i < 300 && !m.io().idle(); ++i)
        m.io().pump();
    EXPECT_TRUE(m.io().idle());
    EXPECT_FALSE(m.cpu(0).inTx());
    EXPECT_EQ(m.cpu(0).stats().value("tx.abort.fetch-conflict"), 1u);
}

TEST(IoSubsystem, DmaInterleavesWithRunningProgram)
{
    // CPUs and the channel make progress together under run().
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase + 0x10000));
    as.lhi(8, 200);
    as.label("loop");
    as.tbeginc(0x00);
    as.lgfo(1, 9);
    as.ahi(1, 1);
    as.stg(1, 9);
    as.tend();
    as.brct(8, "loop");
    as.halt();
    const Program p = as.finish();

    sim::Machine m(ioConfig(2));
    m.setProgramAll(&p);
    m.io().submit({.write = true, .addr = dataBase,
                   .length = 16 * 1024, .pattern = 0x11});
    m.run();
    m.drainIo();
    EXPECT_EQ(m.io().completed(), 1u);
    EXPECT_EQ(m.peekMem(dataBase + 0x10000, 8), 400u);
    EXPECT_EQ(m.memory().readByte(dataBase + 16 * 1024 - 1), 0x11);
}

TEST(IoSubsystem, TransactionalWorkSurvivesHeavyIo)
{
    // Constrained increments against a stream of DMA writes into
    // the same line: the guarantee must hold and no increments are
    // lost (the DMA pattern writes other bytes of the line).
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(8, 100);
    as.label("loop");
    as.tbeginc(0x00);
    as.lgfo(1, 9);
    as.ahi(1, 1);
    as.stg(1, 9);
    as.tend();
    as.brct(8, "loop");
    as.halt();
    const Program p = as.finish();

    sim::Machine m(ioConfig(2));
    m.setProgramAll(&p);
    // DMA hammers a *neighbouring* line, plus occasional hits on
    // the counter's line tail (not the counter doubleword).
    for (int i = 0; i < 20; ++i) {
        m.io().submit({.write = true, .addr = dataBase + 128,
                       .length = 64, .pattern = 0x77});
    }
    m.run();
    m.drainIo();
    EXPECT_EQ(m.peekMem(dataBase, 8), 200u);
    EXPECT_EQ(m.memory().readByte(dataBase + 128), 0x77);
}

TEST(IoSubsystem, LoadsSeeLaterWritesToOnceUnwrittenLines)
{
    // Two never-written lines: the CPU's loads read zero before
    // either is allocated, then see the channel's and the host's
    // writes, first on the load that finds the line allocated and
    // again through the line storage it kept from that load.
    const Addr a = dataBase;
    const Addr b = dataBase + lineSizeBytes;
    Assembler as;
    as.la(9, 0, std::int64_t(a));
    as.la(8, 0, std::int64_t(b));
    as.label("loop");
    as.lg(1, 9);
    as.lg(2, 8);
    as.j("loop");
    const Program p = as.finish();

    sim::Machine m(ioConfig(1));
    m.setProgram(0, &p);
    const auto loadBoth = [&] {
        for (int i = 0; i < 3; ++i)
            m.cpu(0).step();
    };
    m.cpu(0).step(); // LA
    loadBoth();      // LA, LG, LG
    EXPECT_EQ(m.cpu(0).gr(1), 0u);
    EXPECT_EQ(m.cpu(0).gr(2), 0u);
    EXPECT_EQ(m.memory().linesAllocated(), 0u);

    for (const std::uint8_t pattern : {0x11, 0x22}) {
        m.io().submit({.write = true, .addr = a, .length = 8,
                       .pattern = pattern});
        m.drainIo();
        m.memory().write(b, pattern, 8);
        loadBoth(); // J, LG, LG
        EXPECT_EQ(m.cpu(0).gr(1), 0x0101010101010101ULL * pattern);
        EXPECT_EQ(m.cpu(0).gr(2), pattern);
    }
}

} // namespace
