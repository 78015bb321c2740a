/**
 * @file
 * Read-footprint behaviour: the L1 LRU-extension scheme that grows
 * the supported transactional fetch footprint from L1 capacity to L2
 * capacity (paper §III.C, evaluated in figure 5(f)).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>

#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using isa::Assembler;
using isa::Program;

/**
 * A transaction reading @p lines cache lines with stride
 * @p stride_bytes, with a retry/fallback skeleton. GR3 == 1 when the
 * transactional path succeeded, 2 when the fallback ran.
 */
Program
readFootprintProgram(unsigned lines, std::uint64_t stride_bytes)
{
    Assembler as;
    as.lhi(0, 0);
    as.label("loop");
    as.tbegin(0xFF);
    as.jnz("abort");
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(8, std::int64_t(lines));
    as.label("reads");
    as.lg(1, 9);
    as.la(9, 9, std::int64_t(stride_bytes));
    as.brct(8, "reads");
    as.tend();
    as.lhi(3, 1);
    as.j("done");
    as.label("abort");
    as.jo("fallback");
    as.ahi(0, 1);
    as.cijnl(0, 4, "fallback");
    as.j("loop");
    as.label("fallback");
    as.lhi(3, 2);
    as.label("done");
    as.halt();
    return as.finish();
}

/** Default geometry: L1 is 64 rows x 6 ways, L2 512 rows x 8 ways. */
constexpr std::uint64_t l1RowStride = 64 * lineSizeBytes;  // 16 KiB
constexpr std::uint64_t l2RowStride = 512 * lineSizeBytes; // 128 KiB

TEST(Footprint, WithinL1AssociativityCommits)
{
    const Program p = readFootprintProgram(6, l1RowStride);
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run();
    EXPECT_EQ(m.cpu(0).gr(3), 1u);
    EXPECT_EQ(m.cpu(0).stats().counter("tx.aborts").value(), 0u);
}

TEST(Footprint, LruExtensionCarriesBeyondL1Associativity)
{
    // 12 lines in one L1 row exceed its 6 ways; the LRU extension
    // must keep the transaction alive (footprint promise = L2).
    const Program p = readFootprintProgram(12, l1RowStride);
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run();
    EXPECT_EQ(m.cpu(0).gr(3), 1u);
    EXPECT_EQ(m.cpu(0).stats().counter("tx.aborts").value(), 0u);
    EXPECT_GT(m.cpu(0)
                  .stats()
                  .counter("l1.tx_read_evicted")
                  .value(),
              0u);
    EXPECT_GT(
        m.hierarchy().stats().counters().at("l1.lru_ext_set").value(),
        0u);
}

TEST(Footprint, WithoutLruExtensionL1OverflowAborts)
{
    auto cfg = smallConfig(1);
    cfg.tm.lruExtensionEnabled = false;
    const Program p = readFootprintProgram(12, l1RowStride);
    sim::Machine m(cfg);
    m.setProgram(0, &p);
    m.run();
    EXPECT_EQ(m.cpu(0).gr(3), 2u); // fell back
    EXPECT_GT(m.cpu(0)
                  .stats()
                  .counter("tx.abort.cache-fetch")
                  .value(),
              0u);
}

TEST(Footprint, BeyondL2AssociativityAbortsEvenWithExtension)
{
    // 12 lines in one L2 row exceed its 8 ways: an L2 LRU-XI hits
    // the (imprecise) extension row and kills the transaction.
    const Program p = readFootprintProgram(12, l2RowStride);
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run();
    EXPECT_EQ(m.cpu(0).gr(3), 2u);
    EXPECT_GT(m.cpu(0)
                  .stats()
                  .counter("tx.abort.cache-fetch")
                  .value(),
              0u);
}

TEST(Footprint, ExtensionClearedBetweenTransactions)
{
    // First TX overflows a row (sets extension bits); the next TX
    // touches the same row lightly and must not abort.
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.tbegin(0xFF);
    as.jnz("out");
    for (int i = 0; i < 8; ++i)
        as.lg(1, 9, std::int64_t(i * l1RowStride));
    as.tend();
    as.tbegin(0xFF);
    as.jnz("out");
    as.lg(1, 9, 0);
    as.tend();
    as.lhi(3, 1);
    as.label("out");
    as.halt();
    sim::Machine m(smallConfig(1));
    const Program p = as.finish();
    m.setProgram(0, &p);
    m.run();
    EXPECT_EQ(m.cpu(0).gr(3), 1u);
    EXPECT_EQ(m.cpu(0).stats().counter("tx.commits").value(), 2u);
    EXPECT_FALSE(m.hierarchy().lruExtensionAny(0));
}

TEST(Footprint, EvictedTrackedLinesStayInAttackableFootprint)
{
    // An adversary must be able to aim at the *whole* promised
    // footprint: tx-read lines displaced from the L1 under an
    // LRU-extension row are remembered in a per-CPU shadow list,
    // surface through txFootprintLines(), and a conflict XI on one
    // of them still kills the transaction (the extension row is
    // row-granular, so the hit is imprecise but fatal).
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.tbegin(0xFF);
    as.jnz("out");
    for (int i = 0; i < 12; ++i)
        as.lg(1, 9, std::int64_t(i * l1RowStride));
    as.label("spin");
    as.j("spin"); // hold the transaction open
    as.label("out");
    as.halt();
    const Program p = as.finish();
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run(20'000);
    ASSERT_TRUE(m.cpu(0).inTx());

    const auto &tracked = m.hierarchy().lruTrackedLines(0);
    ASSERT_FALSE(tracked.empty());
    const auto footprint = m.hierarchy().txFootprintLines(0);
    for (const Addr line : tracked) {
        EXPECT_NE(std::find(footprint.begin(), footprint.end(),
                            line),
                  footprint.end())
            << "evicted tracked line missing from footprint";
        EXPECT_FALSE(m.hierarchy().inL1(0, line));
        EXPECT_TRUE(m.hierarchy().lruExtensionHit(0, line));
    }

    // Attacking a tracked (L1-evicted) line aborts the transaction.
    EXPECT_TRUE(m.hierarchy().injectAdversarialXi(0, tracked[0]));
    EXPECT_FALSE(m.cpu(0).inTx());
}

TEST(Footprint, TxDirtyLinesMayLeaveL1WithoutAbort)
{
    // Store footprint does not rely on the LRU extension: tx-dirty
    // lines can be evicted from L1 (they stay in L2 / the store
    // cache). 8 stores to one L1 row (6 ways) must commit.
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 7);
    as.tbegin(0xFF);
    as.jnz("out");
    for (int i = 0; i < 8; ++i)
        as.stg(1, 9, std::int64_t(i * l1RowStride));
    as.tend();
    as.lhi(3, 1);
    as.label("out");
    as.halt();
    sim::Machine m(smallConfig(1));
    const Program p = as.finish();
    m.setProgram(0, &p);
    m.run();
    EXPECT_EQ(m.cpu(0).gr(3), 1u);
    EXPECT_EQ(m.peekMem(dataBase + 7 * l1RowStride, 8), 7u);
}

} // namespace
