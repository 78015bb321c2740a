/**
 * @file
 * Inclusivity LRU-XIs from the shared cache levels: evictions in the
 * L3/L4 (driven by *other* cores' capacity pressure) invalidate
 * lower-level copies and abort transactions whose footprint they
 * hit — one of the abort sources the paper lists for very large and
 * long transactions (§IV: "LRU evictions from higher level caches").
 */

#include <gtest/gtest.h>

#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using isa::Assembler;
using isa::Program;

/** Tiny shared levels so a handful of lines overflow them. */
sim::MachineConfig
tinySharedConfig(unsigned cpus)
{
    auto cfg = smallConfig(cpus);
    cfg.geometry.l1 = {2 * 2 * lineSizeBytes, 2};   // 2 rows x 2
    cfg.geometry.l2 = {4 * 4 * lineSizeBytes, 4};   // 16 lines
    cfg.geometry.l3 = {4 * 4 * lineSizeBytes, 4};   // 16 lines
    cfg.geometry.l4 = {16 * 8 * lineSizeBytes, 8};  // 128 lines
    return cfg;
}

TEST(SharedEviction, NeighborPressureAbortsTransaction)
{
    // CPU0 transactionally reads one line, then spins; CPU1 (same
    // chip, same L3) streams through enough lines to evict CPU0's
    // line from the shared L3 -> inclusivity LRU-XI -> abort.
    Assembler t;
    t.la(9, 0, std::int64_t(dataBase));
    t.tbegin(0xFF);
    t.jnz("done");
    t.lg(1, 9);
    t.label("spin");
    t.j("spin");
    t.label("done");
    t.halt();
    const Program txprog = t.finish();

    Assembler s;
    s.la(9, 0, std::int64_t(dataBase) + 0x100000);
    s.lhi(8, 64); // far more than the 16-line L3
    s.label("loop");
    s.lg(1, 9);
    s.la(9, 9, 256);
    s.brct(8, "loop");
    s.halt();
    const Program streamer = s.finish();

    sim::Machine m(tinySharedConfig(2));
    m.setProgram(0, &txprog);
    m.setProgram(1, &streamer);

    for (int i = 0; i < 6; ++i)
        m.cpu(0).step();
    ASSERT_TRUE(m.cpu(0).inTx());

    int steps = 0;
    while (!m.cpu(1).halted() && steps++ < 2000)
        m.cpu(1).step();
    ASSERT_TRUE(m.cpu(1).halted());

    EXPECT_FALSE(m.cpu(0).inTx());
    EXPECT_GE(m.cpu(0).stats().value("tx.abort.cache-fetch"), 1u);
    EXPECT_GT(m.hierarchy().stats().value("l3.evict"), 0u);
}

TEST(SharedEviction, TxDirtyLineLostToL3EvictionAborts)
{
    // Same pressure pattern, but the transactional footprint is a
    // *store*: losing the line is a cache-store abort.
    Assembler t;
    t.la(9, 0, std::int64_t(dataBase));
    t.lhi(1, 5);
    t.tbegin(0xFF);
    t.jnz("done");
    t.stg(1, 9);
    t.label("spin");
    t.j("spin");
    t.label("done");
    t.halt();
    const Program txprog = t.finish();

    Assembler s;
    s.la(9, 0, std::int64_t(dataBase) + 0x100000);
    s.lhi(8, 64);
    s.label("loop");
    s.lg(1, 9);
    s.la(9, 9, 256);
    s.brct(8, "loop");
    s.halt();
    const Program streamer = s.finish();

    sim::Machine m(tinySharedConfig(2));
    m.memory().write(dataBase, 1, 8);
    m.setProgram(0, &txprog);
    m.setProgram(1, &streamer);
    for (int i = 0; i < 7; ++i)
        m.cpu(0).step();
    ASSERT_TRUE(m.cpu(0).inTx());
    int steps = 0;
    while (!m.cpu(1).halted() && steps++ < 2000)
        m.cpu(1).step();

    EXPECT_FALSE(m.cpu(0).inTx());
    EXPECT_GE(m.cpu(0).stats().value("tx.abort.cache-store"), 1u);
    // The speculative store never reached memory.
    EXPECT_EQ(m.peekMem(dataBase, 8), 1u);
}

TEST(SharedEviction, L4EvictionCascadesThroughL3)
{
    // A single CPU streaming past the L4 capacity forces L4
    // evictions that cascade invalidations through L3/L2/L1 while
    // keeping every inclusivity invariant intact.
    Assembler s;
    s.la(9, 0, std::int64_t(dataBase));
    s.lhi(8, 300); // 300 lines >> 128-line L4
    s.label("loop");
    s.lg(1, 9);
    s.la(9, 9, 256);
    s.brct(8, "loop");
    s.halt();
    const Program streamer = s.finish();

    sim::Machine m(tinySharedConfig(1));
    m.setProgram(0, &streamer);
    m.run();
    EXPECT_TRUE(m.cpu(0).halted());
    EXPECT_GT(m.hierarchy().stats().value("l4.evict"), 0u);
    m.hierarchy().checkInvariants();
}

TEST(SharedEviction, NonTxWorkUnaffectedByLruXis)
{
    // The same pressure against non-transactional state is
    // harmless: data survives via memory, nothing aborts.
    Assembler p;
    p.la(9, 0, std::int64_t(dataBase));
    p.lhi(1, 77);
    p.stg(1, 9);
    p.la(10, 0, std::int64_t(dataBase) + 0x100000);
    p.lhi(8, 64);
    p.label("loop");
    p.lg(2, 10);
    p.la(10, 10, 256);
    p.brct(8, "loop");
    p.lg(3, 9); // reload the (long-evicted) first line
    p.halt();
    const Program prog = p.finish();

    sim::Machine m(tinySharedConfig(1));
    m.setProgram(0, &prog);
    m.run();
    EXPECT_EQ(m.cpu(0).gr(3), 77u);
    m.hierarchy().checkInvariants();
}

} // namespace
