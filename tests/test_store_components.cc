/** @file Unit tests for the gathering store cache. */

#include <gtest/gtest.h>

#include "core/store_cache.hh"
#include "mem/main_memory.hh"

namespace {

using namespace ztx;
using core::GatheringStoreCache;
using mem::MainMemory;

class StoreCacheTest : public ::testing::Test
{
  protected:
    /** Store a big-endian 8-byte value. */
    bool
    store8(Addr addr, std::uint64_t value, bool ntstg = false)
    {
        std::uint8_t bytes[8];
        for (unsigned i = 0; i < 8; ++i)
            bytes[i] = std::uint8_t(value >> (8 * (7 - i)));
        return sc.store(addr, bytes, 8, ntstg, memory);
    }

    std::uint64_t
    read8(Addr addr)
    {
        std::uint8_t buf[8] = {};
        memory.readBlock(addr, buf, 8);
        sc.overlay(addr, 8, buf);
        std::uint64_t v = 0;
        for (const auto b : buf)
            v = (v << 8) | b;
        return v;
    }

    MainMemory memory;
    GatheringStoreCache sc{8, "t"}; // small: 8 entries
};

TEST_F(StoreCacheTest, GatherIntoSameBlock)
{
    EXPECT_TRUE(store8(0x100, 1));
    EXPECT_TRUE(store8(0x108, 2));
    EXPECT_EQ(sc.liveEntries(), 1u); // gathered
    EXPECT_EQ(sc.stats().counter("gathers").value(), 1u);
    EXPECT_EQ(read8(0x100), 1u);
    EXPECT_EQ(read8(0x108), 2u);
}

TEST_F(StoreCacheTest, DistinctBlocksAllocate)
{
    store8(0x000, 1);
    store8(0x080, 2); // next 128-byte block
    EXPECT_EQ(sc.liveEntries(), 2u);
}

TEST_F(StoreCacheTest, StoreStraddlingBlocksSplits)
{
    EXPECT_TRUE(store8(0x7C, 0x1122334455667788ULL));
    EXPECT_EQ(sc.liveEntries(), 2u);
    EXPECT_EQ(read8(0x7C), 0x1122334455667788ULL);
}

TEST_F(StoreCacheTest, CapacityEvictsOldestNonTx)
{
    for (unsigned i = 0; i < 9; ++i)
        store8(Addr(i) * 128, i);
    EXPECT_EQ(sc.liveEntries(), 8u);
    // Entry 0 was written back to memory.
    EXPECT_EQ(memory.read(0, 8), 0u);
    EXPECT_EQ(sc.stats().counter("evictions").value(), 1u);
    EXPECT_EQ(read8(8 * 128), 8u);
}

TEST_F(StoreCacheTest, OverflowWhenFullOfTxEntries)
{
    sc.beginTransaction(memory);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_TRUE(store8(Addr(i) * 128, i));
    EXPECT_FALSE(store8(Addr(8) * 128, 8));
    EXPECT_EQ(sc.stats().counter("overflows").value(), 1u);
}

TEST_F(StoreCacheTest, TxDataInvisibleToMemoryUntilCommit)
{
    sc.beginTransaction(memory);
    store8(0x100, 42);
    EXPECT_EQ(memory.read(0x100, 8), 0u);
    sc.commitTransaction(memory);
    EXPECT_EQ(memory.read(0x100, 8), 42u);
}

TEST_F(StoreCacheTest, AbortDiscardsTxData)
{
    memory.write(0x100, 7, 8);
    sc.beginTransaction(memory);
    store8(0x100, 42);
    sc.abortTransaction(memory);
    EXPECT_EQ(memory.read(0x100, 8), 7u);
    EXPECT_EQ(read8(0x100), 7u); // overlay gone too
    EXPECT_EQ(sc.liveEntries(), 0u);
    EXPECT_FALSE(sc.inTransaction());
}

TEST_F(StoreCacheTest, AbortCommitsNtstgDoublewords)
{
    sc.beginTransaction(memory);
    store8(0x100, 42);       // regular tx store
    store8(0x110, 99, true); // NTSTG doubleword
    sc.abortTransaction(memory);
    EXPECT_EQ(memory.read(0x100, 8), 0u);
    EXPECT_EQ(memory.read(0x110, 8), 99u);
}

TEST_F(StoreCacheTest, NtstgOverlapDetected)
{
    sc.beginTransaction(memory);
    store8(0x100, 42);
    store8(0x100, 43, true); // NTSTG over a tx store
    const std::uint64_t overlaps =
        sc.stats().counter("ntstg_overlap").value();
    EXPECT_GE(overlaps, 1u);
    // Commit clears the marks: a later plain store over the
    // doubleword is no overlap.
    sc.commitTransaction(memory);
    store8(0x100, 44);
    EXPECT_EQ(sc.stats().counter("ntstg_overlap").value(), overlaps);
}

TEST_F(StoreCacheTest, BeginTransactionDrainsEveryEntry)
{
    store8(0x100, 1);
    sc.beginTransaction(memory);
    EXPECT_TRUE(sc.inTransaction());
    EXPECT_EQ(sc.liveEntries(), 0u);
    EXPECT_EQ(memory.read(0x100, 8), 1u);
    // A store after TBEGIN allocates a fresh entry.
    store8(0x108, 2);
    EXPECT_EQ(sc.liveEntries(), 1u);
    EXPECT_EQ(sc.stats().counter("gathers").value(), 0u);
}

TEST_F(StoreCacheTest, CommitKeepsEntriesOpenForGathering)
{
    sc.beginTransaction(memory);
    store8(0x100, 1);
    sc.commitTransaction(memory);
    EXPECT_FALSE(sc.inTransaction());
    store8(0x108, 2);
    // Gathered into the now-normal entry.
    EXPECT_EQ(sc.liveEntries(), 1u);
}

TEST_F(StoreCacheTest, CommittedBlockReachesMemoryOnce)
{
    sc.beginTransaction(memory);
    store8(0x100, 1);
    sc.commitTransaction(memory);
    EXPECT_EQ(memory.read(0x100, 8), 1u);
    // A direct memory write stands in for observing a second
    // write-back: the clean committed entry must not rewrite it at
    // the next TBEGIN. (In a machine every other writer of the line
    // first sends the XI that drains the entry.)
    memory.write(0x100, 77, 8);
    sc.beginTransaction(memory);
    EXPECT_EQ(sc.liveEntries(), 0u);
    EXPECT_EQ(memory.read(0x100, 8), 77u);
}

TEST_F(StoreCacheTest, PostCommitStoreRedirtiesWholeEntry)
{
    sc.beginTransaction(memory);
    store8(0x100, 1);
    sc.commitTransaction(memory);
    memory.write(0x100, 77, 8);
    store8(0x108, 2); // gathers into the committed entry
    sc.beginTransaction(memory);
    // The re-dirtied entry writes every valid byte, as before.
    EXPECT_EQ(memory.read(0x100, 8), 1u);
    EXPECT_EQ(memory.read(0x108, 8), 2u);
}

TEST_F(StoreCacheTest, CountersRegisterOnFirstIncrement)
{
    EXPECT_TRUE(sc.stats().counters().empty());
    store8(0x100, 1);
    EXPECT_EQ(sc.stats().counters().count("allocations"), 1u);
    EXPECT_EQ(sc.stats().counters().count("gathers"), 0u);
    store8(0x108, 2);
    EXPECT_EQ(sc.stats().counters().count("gathers"), 1u);
}

TEST_F(StoreCacheTest, LineQueries)
{
    store8(0x200, 2);
    EXPECT_TRUE(sc.hasAnyLine(0x200));
    EXPECT_FALSE(sc.hasAnyLine(0x100));
    EXPECT_FALSE(sc.hasAnyLine(0x208)); // not a line address
    sc.beginTransaction(memory);
    EXPECT_FALSE(sc.hasAnyLine(0x200)); // drained at TBEGIN
    store8(0x180, 1); // second block of line 0x100
    EXPECT_TRUE(sc.hasAnyLine(0x100));
    EXPECT_FALSE(sc.hasAnyLine(0x200));
    sc.commitTransaction(memory);
    EXPECT_TRUE(sc.hasAnyLine(0x100)); // committed entries stay live
}

TEST_F(StoreCacheTest, DrainLineWritesBackNonTxOnly)
{
    sc.beginTransaction(memory);
    store8(0x100, 1);
    // Inside a transaction a drain is a no-op: the data stays
    // buffered until the transaction ends.
    sc.drainLine(0x100, memory);
    sc.drainAll(memory);
    EXPECT_EQ(memory.read(0x100, 8), 0u);
    EXPECT_EQ(sc.liveEntries(), 1u);
    sc.commitTransaction(memory);
    memory.write(0x100, 77, 8);
    store8(0x180, 2); // same 256-byte line, outside the transaction
    sc.drainLine(0x100, memory);
    EXPECT_EQ(sc.liveEntries(), 0u);
    EXPECT_EQ(memory.read(0x100, 8), 77u); // clean: not rewritten
    EXPECT_EQ(memory.read(0x180, 8), 2u);
}

TEST_F(StoreCacheTest, TxOverlayWinsOverOlderNonTxEntry)
{
    store8(0x100, 1);
    sc.beginTransaction(memory);
    store8(0x100, 2);
    EXPECT_EQ(read8(0x100), 2u);
}

using StoreCacheDeathTest = StoreCacheTest;

TEST_F(StoreCacheDeathTest, BeginInsideTransactionPanics)
{
    sc.beginTransaction(memory);
    EXPECT_DEATH(sc.beginTransaction(memory), "inside a transaction");
}

} // namespace
