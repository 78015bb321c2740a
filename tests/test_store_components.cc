/** @file Unit tests for the store queue and gathering store cache. */

#include <gtest/gtest.h>

#include "core/store_cache.hh"
#include "core/store_queue.hh"
#include "mem/main_memory.hh"

namespace {

using namespace ztx;
using core::GatheringStoreCache;
using core::StoreQueue;
using core::StoreQueueEntry;
using mem::MainMemory;

TEST(StoreQueue, ForwardingOverlaysNewestWins)
{
    StoreQueue q;
    q.push({0x100, 8, 0x1111111111111111ULL, false, false});
    q.push({0x104, 4, 0x22222222ULL, false, false});
    std::uint8_t buf[8] = {};
    q.overlay(0x100, 8, buf);
    EXPECT_EQ(buf[0], 0x11);
    EXPECT_EQ(buf[3], 0x11);
    EXPECT_EQ(buf[4], 0x22);
    EXPECT_EQ(buf[7], 0x22);
}

TEST(StoreQueue, PopIsFifo)
{
    StoreQueue q;
    q.push({0x10, 8, 1, false, false});
    q.push({0x20, 8, 2, false, false});
    EXPECT_EQ(q.pop().value, 1u);
    EXPECT_EQ(q.pop().value, 2u);
    EXPECT_TRUE(q.empty());
}

TEST(StoreQueue, DropTransactionalKeepsNtstgAndNormal)
{
    StoreQueue q;
    q.push({0x10, 8, 1, true, false});  // tx store: dropped
    q.push({0x20, 8, 2, false, false}); // normal: kept
    q.push({0x30, 8, 3, true, true});   // NTSTG: kept
    q.dropTransactional();
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop().value, 2u);
    EXPECT_EQ(q.pop().value, 3u);
}

TEST(StoreQueue, ClearMarksTurnsTxIntoNormal)
{
    StoreQueue q;
    q.push({0x10, 8, 1, true, false});
    q.clearTransactionalMarks();
    q.dropTransactional();
    EXPECT_EQ(q.size(), 1u);
}

class StoreCacheTest : public ::testing::Test
{
  protected:
    /** Store a big-endian 8-byte value. */
    bool
    store8(Addr addr, std::uint64_t value, bool tx,
           bool ntstg = false)
    {
        std::uint8_t bytes[8];
        for (unsigned i = 0; i < 8; ++i)
            bytes[i] = std::uint8_t(value >> (8 * (7 - i)));
        return sc.store(addr, bytes, 8, tx, ntstg, memory);
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
    EXPECT_TRUE(store8(0x100, 1, false));
    EXPECT_TRUE(store8(0x108, 2, false));
    EXPECT_EQ(sc.liveEntries(), 1u); // gathered
    EXPECT_EQ(sc.stats().counter("gathers").value(), 1u);
    EXPECT_EQ(read8(0x100), 1u);
    EXPECT_EQ(read8(0x108), 2u);
}

TEST_F(StoreCacheTest, DistinctBlocksAllocate)
{
    store8(0x000, 1, false);
    store8(0x080, 2, false); // next 128-byte block
    EXPECT_EQ(sc.liveEntries(), 2u);
}

TEST_F(StoreCacheTest, StoreStraddlingBlocksSplits)
{
    EXPECT_TRUE(store8(0x7C, 0x1122334455667788ULL, false));
    EXPECT_EQ(sc.liveEntries(), 2u);
    EXPECT_EQ(read8(0x7C), 0x1122334455667788ULL);
}

TEST_F(StoreCacheTest, CapacityEvictsOldestNonTx)
{
    for (unsigned i = 0; i < 9; ++i)
        store8(Addr(i) * 128, i, false);
    EXPECT_EQ(sc.liveEntries(), 8u);
    // Entry 0 was written back to memory.
    EXPECT_EQ(memory.read(0, 8), 0u);
    EXPECT_EQ(sc.stats().counter("evictions").value(), 1u);
    EXPECT_EQ(read8(8 * 128), 8u);
}

TEST_F(StoreCacheTest, OverflowWhenFullOfTxEntries)
{
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_TRUE(store8(Addr(i) * 128, i, true));
    EXPECT_FALSE(store8(Addr(8) * 128, 8, true));
    EXPECT_EQ(sc.stats().counter("overflows").value(), 1u);
}

TEST_F(StoreCacheTest, TxDataInvisibleToMemoryUntilCommit)
{
    store8(0x100, 42, true);
    EXPECT_EQ(memory.read(0x100, 8), 0u);
    sc.commitTransaction(memory);
    EXPECT_EQ(memory.read(0x100, 8), 42u);
}

TEST_F(StoreCacheTest, AbortDiscardsTxData)
{
    memory.write(0x100, 7, 8);
    store8(0x100, 42, true);
    sc.abortTransaction(memory);
    EXPECT_EQ(memory.read(0x100, 8), 7u);
    EXPECT_EQ(read8(0x100), 7u); // overlay gone too
    EXPECT_EQ(sc.liveTransactionalEntries(), 0u);
}

TEST_F(StoreCacheTest, AbortCommitsNtstgDoublewords)
{
    store8(0x100, 42, true);        // regular tx store
    store8(0x110, 99, true, true);  // NTSTG doubleword
    sc.abortTransaction(memory);
    EXPECT_EQ(memory.read(0x100, 8), 0u);
    EXPECT_EQ(memory.read(0x110, 8), 99u);
}

TEST_F(StoreCacheTest, NtstgOverlapDetected)
{
    store8(0x100, 42, true);
    store8(0x100, 43, true, true); // NTSTG over a tx store
    EXPECT_GE(sc.stats().counter("ntstg_overlap").value(), 1u);
}

TEST_F(StoreCacheTest, CloseAllEntriesDrainsAndStopsGathering)
{
    store8(0x100, 1, false);
    sc.closeAllEntries(memory);
    EXPECT_EQ(sc.liveEntries(), 0u);
    EXPECT_EQ(memory.read(0x100, 8), 1u);
    // A new store after closing allocates a fresh entry.
    store8(0x108, 2, true);
    EXPECT_EQ(sc.liveEntries(), 1u);
    EXPECT_TRUE(sc.hasTransactionalLine(0x100));
}

TEST_F(StoreCacheTest, CommitKeepsEntriesOpenForGathering)
{
    store8(0x100, 1, true);
    sc.commitTransaction(memory);
    store8(0x108, 2, false);
    // Gathered into the now-normal entry.
    EXPECT_EQ(sc.liveEntries(), 1u);
}

TEST_F(StoreCacheTest, CommittedBlockReachesMemoryOnce)
{
    store8(0x100, 1, true);
    sc.commitTransaction(memory);
    EXPECT_EQ(memory.read(0x100, 8), 1u);
    // A direct memory write stands in for observing a second
    // write-back: the clean committed entry must not rewrite it at
    // the next TBEGIN. (In a machine every other writer of the line
    // first sends the XI that drains the entry.)
    memory.write(0x100, 77, 8);
    sc.closeAllEntries(memory);
    EXPECT_EQ(sc.liveEntries(), 0u);
    EXPECT_EQ(memory.read(0x100, 8), 77u);
}

TEST_F(StoreCacheTest, PostCommitStoreRedirtiesWholeEntry)
{
    store8(0x100, 1, true);
    sc.commitTransaction(memory);
    memory.write(0x100, 77, 8);
    store8(0x108, 2, false); // gathers into the committed entry
    sc.closeAllEntries(memory);
    // The re-dirtied entry writes every valid byte, as before.
    EXPECT_EQ(memory.read(0x100, 8), 1u);
    EXPECT_EQ(memory.read(0x108, 8), 2u);
}

TEST_F(StoreCacheTest, CountersRegisterOnFirstIncrement)
{
    EXPECT_TRUE(sc.stats().counters().empty());
    store8(0x100, 1, false);
    EXPECT_EQ(sc.stats().counters().count("allocations"), 1u);
    EXPECT_EQ(sc.stats().counters().count("gathers"), 0u);
    store8(0x108, 2, false);
    EXPECT_EQ(sc.stats().counters().count("gathers"), 1u);
}

TEST_F(StoreCacheTest, LineQueries)
{
    store8(0x100, 1, true);
    EXPECT_TRUE(sc.hasTransactionalLine(0x100));
    EXPECT_TRUE(sc.hasAnyLine(0x100));
    EXPECT_FALSE(sc.hasTransactionalLine(0x200));
    store8(0x200, 2, false);
    EXPECT_FALSE(sc.hasTransactionalLine(0x200));
    EXPECT_TRUE(sc.hasAnyLine(0x200));
}

TEST_F(StoreCacheTest, DrainLineWritesBackNonTxOnly)
{
    store8(0x100, 1, false);
    store8(0x180, 2, true); // same 256-byte line, tx
    sc.drainLine(0x100, memory);
    EXPECT_EQ(memory.read(0x100, 8), 1u);
    EXPECT_EQ(memory.read(0x180, 8), 0u); // tx data stays buffered
    EXPECT_TRUE(sc.hasTransactionalLine(0x100));
}

TEST_F(StoreCacheTest, TxOverlayWinsOverOlderNonTxEntry)
{
    store8(0x100, 1, false);
    sc.closeAllEntries(memory);
    store8(0x100, 2, true);
    EXPECT_EQ(read8(0x100), 2u);
}

} // namespace
