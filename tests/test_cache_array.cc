/** @file Unit tests for the set-associative tag array. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hh"
#include "mem/cache_array.hh"

namespace {

using ztx::Addr;
using ztx::lineSizeBytes;
using ztx::mem::CacheArray;
using ztx::mem::CacheGeometry;
namespace line_flag = ztx::mem::line_flag;

/** 4 rows x 2 ways of 256-byte lines. */
CacheArray
tinyArray()
{
    return CacheArray(CacheGeometry{4 * 2 * lineSizeBytes, 2}, "tiny");
}

/** Line address landing in @p row with tag-part @p k. */
Addr
lineInRow(unsigned row, unsigned k)
{
    return Addr(row + 4 * k) * lineSizeBytes;
}

TEST(CacheArray, GeometryDerivesRows)
{
    CacheArray a(CacheGeometry{96 * 1024, 6}, "l1");
    EXPECT_EQ(a.rows(), 64u);
    EXPECT_EQ(a.assoc(), 6u);
}

TEST(CacheArray, InsertThenContains)
{
    auto a = tinyArray();
    EXPECT_FALSE(a.contains(0));
    const auto victim = a.insert(0);
    EXPECT_FALSE(victim.valid);
    EXPECT_TRUE(a.contains(0));
    EXPECT_EQ(a.validCount(), 1u);
}

TEST(CacheArray, EvictsTrueLruWithinSet)
{
    auto a = tinyArray();
    const Addr first = lineInRow(1, 0);
    const Addr second = lineInRow(1, 1);
    const Addr third = lineInRow(1, 2);
    a.insert(first);
    a.insert(second);
    a.touch(first); // make `second` the LRU way
    const auto victim = a.insert(third);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.line, second);
    EXPECT_TRUE(a.contains(first));
    EXPECT_TRUE(a.contains(third));
    EXPECT_FALSE(a.contains(second));
}

TEST(CacheArray, DifferentRowsDoNotConflict)
{
    auto a = tinyArray();
    for (unsigned row = 0; row < 4; ++row) {
        a.insert(lineInRow(row, 0));
        a.insert(lineInRow(row, 1));
    }
    EXPECT_EQ(a.validCount(), 8u);
}

TEST(CacheArray, VictimCarriesFlags)
{
    auto a = tinyArray();
    a.insert(lineInRow(0, 0), line_flag::txRead);
    a.insert(lineInRow(0, 1));
    a.touch(lineInRow(0, 1));
    // Way with txRead is older; it gets evicted with its flags.
    const auto victim = a.insert(lineInRow(0, 2));
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.line, lineInRow(0, 0));
    EXPECT_EQ(victim.flags, line_flag::txRead);
}

TEST(CacheArray, FlagSetAndClear)
{
    auto a = tinyArray();
    a.insert(0);
    a.setFlags(0, line_flag::txRead);
    EXPECT_EQ(a.flagsOf(0), line_flag::txRead);
    a.setFlags(0, line_flag::txDirty);
    EXPECT_EQ(a.flagsOf(0), line_flag::txRead | line_flag::txDirty);
    a.clearFlags(0, line_flag::txRead);
    EXPECT_EQ(a.flagsOf(0), line_flag::txDirty);
}

TEST(CacheArray, ClearFlagsAll)
{
    auto a = tinyArray();
    a.insert(lineInRow(0, 0), line_flag::txRead);
    a.insert(lineInRow(2, 0), line_flag::txDirty);
    a.clearFlagsAll(line_flag::txRead | line_flag::txDirty);
    EXPECT_EQ(a.flagsOf(lineInRow(0, 0)), 0u);
    EXPECT_EQ(a.flagsOf(lineInRow(2, 0)), 0u);
}

TEST(CacheArray, InvalidateRemovesAndClearsFlags)
{
    auto a = tinyArray();
    a.insert(0, line_flag::txDirty);
    EXPECT_TRUE(a.invalidate(0));
    EXPECT_FALSE(a.contains(0));
    EXPECT_FALSE(a.invalidate(0));
    // Reinsert reuses the slot fresh.
    a.insert(0);
    EXPECT_EQ(a.flagsOf(0), 0u);
}

TEST(CacheArray, TouchMissReturnsFalse)
{
    auto a = tinyArray();
    EXPECT_FALSE(a.touch(0x1000));
}

TEST(CacheArray, ForEachValidVisitsAll)
{
    auto a = tinyArray();
    a.insert(lineInRow(0, 0));
    a.insert(lineInRow(3, 1));
    std::vector<Addr> seen;
    a.forEachValid([&](const CacheArray::Entry &e) {
        seen.push_back(e.line);
    });
    EXPECT_EQ(seen.size(), 2u);
}

TEST(CacheArray, RowMapping)
{
    auto a = tinyArray();
    EXPECT_EQ(a.row(0), 0u);
    EXPECT_EQ(a.row(lineSizeBytes), 1u);
    EXPECT_EQ(a.row(4 * lineSizeBytes), 0u);
}

TEST(CacheArray, FlaggedCountTracksEveryTransition)
{
    auto a = tinyArray();
    EXPECT_EQ(a.flaggedCount(), 0u);
    a.insert(lineInRow(0, 0), line_flag::txRead);
    EXPECT_EQ(a.flaggedCount(), 1u);
    a.insert(lineInRow(1, 0));
    EXPECT_EQ(a.flaggedCount(), 1u);
    a.setFlags(lineInRow(1, 0), line_flag::txDirty);
    EXPECT_EQ(a.flaggedCount(), 2u);
    // Adding bits to an already-flagged entry is not a transition.
    a.setFlags(lineInRow(1, 0), line_flag::txRead);
    EXPECT_EQ(a.flaggedCount(), 2u);
    // Clearing only one of two bits leaves the entry flagged.
    a.clearFlags(lineInRow(1, 0), line_flag::txRead);
    EXPECT_EQ(a.flaggedCount(), 2u);
    a.clearFlags(lineInRow(1, 0), line_flag::txDirty);
    EXPECT_EQ(a.flaggedCount(), 1u);
    a.invalidate(lineInRow(0, 0));
    EXPECT_EQ(a.flaggedCount(), 0u);
    EXPECT_EQ(a.indexCheck(), "");
}

TEST(CacheArray, SetFlagsAtProbesForASlotOfAnotherRow)
{
    auto a = tinyArray();
    // Row 1 takes pool slots 0 and 1 (slot 1 never written, tag 0);
    // line 0 lands in row 0, at slot 2.
    a.insert(lineInRow(1, 0));
    a.insert(0);
    a.setFlagsAt(1, 0, line_flag::txRead);
    EXPECT_EQ(a.flagsOf(0), line_flag::txRead);
    EXPECT_EQ(a.flagsOf(lineInRow(1, 0)), 0u);
    a.setFlagsAt(CacheArray::npos, lineInRow(1, 0), line_flag::txDirty);
    EXPECT_EQ(a.flagsOf(lineInRow(1, 0)), line_flag::txDirty);
    EXPECT_EQ(a.flaggedCount(), 2u);
    EXPECT_EQ(a.indexCheck(), "");
}

TEST(CacheArray, ClearFlagsAllShortCircuitStaysCorrect)
{
    auto a = tinyArray();
    a.insert(lineInRow(0, 0));
    a.insert(lineInRow(2, 0));
    // Nothing flagged: the short-circuit path must be a no-op.
    a.clearFlagsAll(line_flag::txRead | line_flag::txDirty);
    EXPECT_TRUE(a.contains(lineInRow(0, 0)));
    EXPECT_EQ(a.flaggedCount(), 0u);
    // Flag, clear all, then flag again: a stale count after the
    // short-circuit would make the second clear skip real flags.
    a.setFlags(lineInRow(0, 0), line_flag::txRead);
    a.clearFlagsAll(line_flag::txRead);
    EXPECT_EQ(a.flaggedCount(), 0u);
    a.setFlags(lineInRow(2, 0), line_flag::txDirty);
    EXPECT_EQ(a.flaggedCount(), 1u);
    a.clearFlagsAll(line_flag::txDirty);
    EXPECT_EQ(a.flagsOf(lineInRow(2, 0)), 0u);
    EXPECT_EQ(a.flaggedCount(), 0u);
    EXPECT_EQ(a.indexCheck(), "");
}

TEST(CacheArray, EvictedFlaggedVictimLeavesCount)
{
    auto a = tinyArray();
    a.insert(lineInRow(0, 0), line_flag::txDirty);
    a.insert(lineInRow(0, 1));
    a.touch(lineInRow(0, 1));
    const auto victim = a.insert(lineInRow(0, 2));
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.flags, line_flag::txDirty);
    EXPECT_EQ(a.flaggedCount(), 0u);
}

TEST(CacheArray, FindAndTouchUpdatesRecency)
{
    auto a = tinyArray();
    EXPECT_FALSE(a.findAndTouch(lineInRow(1, 0)));
    a.insert(lineInRow(1, 0));
    a.insert(lineInRow(1, 1));
    EXPECT_TRUE(a.findAndTouch(lineInRow(1, 0)));
    // lineInRow(1, 1) is now LRU and must be the victim.
    const auto victim = a.insert(lineInRow(1, 2));
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.line, lineInRow(1, 1));
}

TEST(CacheArray, ProbeForInsertReportsHit)
{
    auto a = tinyArray();
    a.insert(lineInRow(0, 0));
    const auto p = a.probeForInsert(lineInRow(0, 0));
    EXPECT_TRUE(p.hit);
    // touchAt on a hit probe is the fused equivalent of touch().
    a.insert(lineInRow(0, 1));
    a.touchAt(p);
    const auto victim = a.insert(lineInRow(0, 2));
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.line, lineInRow(0, 1));
}

TEST(CacheArray, ProbeForInsertMissThenInsertAt)
{
    auto a = tinyArray();
    const auto p_free = a.probeForInsert(lineInRow(2, 0));
    EXPECT_FALSE(p_free.hit);
    EXPECT_FALSE(p_free.wouldEvict);
    const auto v1 = a.insertAt(p_free, lineInRow(2, 0));
    EXPECT_FALSE(v1.valid);
    EXPECT_TRUE(a.contains(lineInRow(2, 0)));

    a.insert(lineInRow(2, 1), line_flag::txRead);
    const auto p_full = a.probeForInsert(lineInRow(2, 2));
    EXPECT_FALSE(p_full.hit);
    EXPECT_TRUE(p_full.wouldEvict);
    const auto v2 = a.insertAt(p_full, lineInRow(2, 2));
    ASSERT_TRUE(v2.valid);
    EXPECT_EQ(v2.line, lineInRow(2, 0)); // LRU way
    EXPECT_EQ(a.indexCheck(), "");
}

TEST(CacheArray, SqueezeEvictsWithPhysicalWaysFree)
{
    auto a = tinyArray();
    a.setEffectiveAssoc(1);
    a.insert(lineInRow(0, 0));
    const auto p = a.probeForInsert(lineInRow(0, 1));
    EXPECT_TRUE(p.wouldEvict);
    const auto victim = a.insertAt(p, lineInRow(0, 1));
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.line, lineInRow(0, 0));
    EXPECT_EQ(a.validCount(), 1u);
    EXPECT_EQ(a.indexCheck(), "");
}

TEST(CacheArray, HugePageArrayStartsEmptyAndStaysConsistent)
{
    // 64 MiB of 256-byte lines: 16,384 rows, of which the test
    // touches 64, so almost every row head stays unallocated while
    // the touched rows overflow and evict.
    CacheArray a(CacheGeometry{std::uint64_t(64) << 20, 16}, "huge");
    EXPECT_EQ(a.validCount(), 0u);
    ASSERT_EQ(a.indexCheck(), "");

    // Lines over 64 rows, 24 tags each: sets overflow and evict.
    std::set<Addr> present;
    ztx::Rng rng(42);
    const std::uint64_t rows = a.rows();
    for (unsigned op = 0; op < 20000; ++op) {
        const Addr line =
            Addr(rng.nextBounded(64) + rows * rng.nextBounded(24)) *
            lineSizeBytes;
        switch (rng.nextBounded(3)) {
          case 0:
            if (!a.contains(line)) {
                const auto victim = a.insert(line);
                if (victim.valid)
                    present.erase(victim.line);
                present.insert(line);
            }
            break;
          case 1:
            EXPECT_EQ(a.touch(line), present.count(line) == 1);
            break;
          default:
            EXPECT_EQ(a.invalidate(line), present.erase(line) == 1);
            break;
        }
        if (op % 1000 == 0) {
            ASSERT_EQ(a.indexCheck(), "") << "after op " << op;
        }
    }
    EXPECT_EQ(a.validCount(), present.size());
    EXPECT_EQ(a.indexCheck(), "");
}

TEST(CacheArray, RowsAllocatedFollowTouchedRows)
{
    // The full-size L4: 384 MiB, 24 ways, 65,536 rows.
    CacheArray a(CacheGeometry{std::uint64_t(384) << 20, 24}, "l4");
    ASSERT_EQ(a.rows(), 65536u);
    EXPECT_EQ(a.rowsAllocated(), 0u);
    EXPECT_FALSE(a.contains(0)); // a probe of an untouched row

    // k inserts into distinct rows (37 is odd, so i * 37 mod 2^16
    // never repeats) allocate exactly k rows.
    constexpr unsigned k = 1000;
    const auto line = [&](unsigned i, unsigned tag) {
        return Addr((std::uint64_t(i) * 37 % a.rows()) +
                    a.rows() * tag) *
               lineSizeBytes;
    };
    for (unsigned i = 0; i < k; ++i) {
        a.insert(line(i, 0));
        ASSERT_EQ(a.rowsAllocated(), i + 1);
    }
    EXPECT_EQ(a.validCount(), k);
    ASSERT_EQ(a.indexCheck(), "");

    // Emptied rows keep their ways: inserting again, old tags or new,
    // allocates none.
    for (unsigned i = 0; i < k; ++i)
        ASSERT_TRUE(a.invalidate(line(i, 0)));
    EXPECT_EQ(a.validCount(), 0u);
    EXPECT_EQ(a.rowsAllocated(), k);
    for (unsigned i = 0; i < k; ++i) {
        a.insert(line(i, i % 2));
        a.insert(line(i, 2));
    }
    EXPECT_EQ(a.rowsAllocated(), k);
    EXPECT_EQ(a.validCount(), 2 * k);
    EXPECT_EQ(a.indexCheck(), "");
}

} // namespace
