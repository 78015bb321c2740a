/** @file Unit tests for the global coherence directory. */

#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "mem/directory.hh"

namespace {

using ztx::Addr;
using ztx::CpuId;
using ztx::invalidCpu;
using ztx::mem::CoherenceDirectory;

constexpr Addr lineA = 0x1000;
constexpr Addr lineB = 0x2000;

TEST(Directory, UnknownLineIsIdle)
{
    CoherenceDirectory d;
    EXPECT_EQ(d.firstHolder(lineA), invalidCpu);
    EXPECT_EQ(d.owner(lineA), invalidCpu);
    EXPECT_FALSE(d.holds(0, lineA));
}

TEST(Directory, ExclusiveOwnership)
{
    CoherenceDirectory d;
    d.setExclusive(lineA, 3);
    EXPECT_EQ(d.owner(lineA), CpuId(3));
    EXPECT_TRUE(d.holds(3, lineA));
    EXPECT_FALSE(d.holds(2, lineA));
}

TEST(Directory, SharersAccumulate)
{
    CoherenceDirectory d;
    d.addSharer(lineA, 1);
    d.addSharer(lineA, 2);
    EXPECT_TRUE(d.holds(1, lineA));
    EXPECT_TRUE(d.holds(2, lineA));
    EXPECT_EQ(d.owner(lineA), invalidCpu);
}

TEST(Directory, DemoteOwnerBecomesSharer)
{
    CoherenceDirectory d;
    d.setExclusive(lineA, 5);
    d.demoteOwner(lineA);
    EXPECT_EQ(d.owner(lineA), invalidCpu);
    EXPECT_TRUE(d.holds(5, lineA));
    d.addSharer(lineA, 6);
    EXPECT_TRUE(d.holds(6, lineA));
}

TEST(Directory, SetExclusiveDropsOldSharers)
{
    CoherenceDirectory d;
    d.addSharer(lineA, 1);
    d.addSharer(lineA, 2);
    d.setExclusive(lineA, 7);
    EXPECT_FALSE(d.holds(1, lineA));
    EXPECT_FALSE(d.holds(2, lineA));
    EXPECT_TRUE(d.holds(7, lineA));
}

TEST(Directory, RemoveOwnerAndSharers)
{
    CoherenceDirectory d;
    d.setExclusive(lineA, 4);
    d.remove(lineA, 4);
    EXPECT_EQ(d.firstHolder(lineA), invalidCpu);
}

TEST(Directory, RemoveLeavesIdleEntriesUntracked)
{
    // Never-erase contract: remove() leaves the slot in place, but
    // idle entries stop counting as tracked lines.
    CoherenceDirectory d;
    d.addSharer(lineA, 0);
    d.addSharer(lineB, 0);
    EXPECT_EQ(d.trackedLines(), 2u);
    d.remove(lineA, 0);
    EXPECT_EQ(d.trackedLines(), 1u);
    EXPECT_EQ(d.firstHolder(lineA), invalidCpu);
    EXPECT_EQ(d.size(), 2u);
}

TEST(Directory, MutatingExistingEntryCreatesNoSlot)
{
    // Mutating an existing entry reuses its slot: the table size
    // stays fixed (no hidden insert path).
    CoherenceDirectory d;
    d.addSharer(lineA, 1);
    const std::size_t sz = d.size();
    d.addSharer(lineA, 2);
    d.remove(lineA, 1);
    d.setExclusive(lineA, 3);
    d.remove(lineA, 3);
    EXPECT_EQ(d.size(), sz);
    d.addSharer(lineA, 2);
    EXPECT_TRUE(d.holds(2, lineA));
    EXPECT_FALSE(d.holds(1, lineA));
}

TEST(Directory, SharersExceptSkipsSelfAndOwner)
{
    CoherenceDirectory d;
    d.addSharer(lineA, 1);
    d.addSharer(lineA, 2);
    d.addSharer(lineA, 3);
    std::vector<CpuId> others;
    d.forEachHolderExcept(lineA, 2,
                          [&](CpuId c) { others.push_back(c); });
    EXPECT_EQ(others, (std::vector<CpuId>{1, 3}));

    // An owned line's only holder is its owner.
    d.setExclusive(lineB, 5);
    others.clear();
    d.forEachHolderExcept(lineB, 5,
                          [&](CpuId c) { others.push_back(c); });
    EXPECT_TRUE(others.empty());
    d.forEachHolderExcept(lineB, 2,
                          [&](CpuId c) { others.push_back(c); });
    EXPECT_EQ(others, (std::vector<CpuId>{5}));
}

TEST(Directory, HolderWalkMayRemoveVisitedCpus)
{
    // The exclusive-fetch path invalidates each sharer as it visits
    // it; the walk must still see every holder exactly once.
    CoherenceDirectory d;
    d.configure(128);
    for (const CpuId c : {0u, 63u, 64u, 100u, 127u})
        d.addSharer(lineA, c);
    std::vector<CpuId> seen;
    d.forEachHolderExcept(lineA, 64, [&](CpuId c) {
        seen.push_back(c);
        d.remove(lineA, c);
    });
    EXPECT_EQ(seen, (std::vector<CpuId>{0, 63, 100, 127}));
    EXPECT_EQ(d.firstHolder(lineA), CpuId(64));
}

TEST(Directory, AnyHolderInMasksRangeAndSelf)
{
    // Two sharer words; the range [60, 66) straddles the boundary.
    CoherenceDirectory d;
    d.configure(72);
    ASSERT_EQ(d.sharerWords(), 2u);
    d.addSharer(lineA, 61);
    d.addSharer(lineA, 65);
    const auto slot = d.find(lineA);
    EXPECT_TRUE(d.anyHolderIn(slot, 60, 66, invalidCpu));
    EXPECT_TRUE(d.anyHolderIn(slot, 60, 66, 61));
    EXPECT_TRUE(d.anyHolderIn(slot, 64, 72, 61));
    EXPECT_FALSE(d.anyHolderIn(slot, 64, 72, 65));
    EXPECT_FALSE(d.anyHolderIn(slot, 0, 61, invalidCpu));
    EXPECT_FALSE(d.anyHolderIn(slot, 62, 65, invalidCpu));
    EXPECT_TRUE(d.anyHolderIn(slot, 62, 66, invalidCpu));
    EXPECT_FALSE(d.anyHolderIn(slot, 66, 72, invalidCpu));

    // The owner counts as a holder; an untracked line has none.
    d.setExclusive(lineB, 70);
    EXPECT_TRUE(d.anyHolderIn(d.find(lineB), 66, 72, 0));
    EXPECT_FALSE(d.anyHolderIn(d.find(lineB), 66, 72, 70));
    EXPECT_FALSE(d.anyHolderIn(d.find(0x3000), 0, 72, invalidCpu));
    EXPECT_FALSE(d.holdsAt(d.find(0x3000), 0));
    EXPECT_EQ(d.ownerAt(d.find(0x3000)), invalidCpu);
}

TEST(Directory, FirstHolderIsOwnerElseLowestSharer)
{
    CoherenceDirectory d;
    d.configure(128);
    d.addSharer(lineA, 90);
    d.addSharer(lineA, 70);
    EXPECT_EQ(d.firstHolder(lineA), CpuId(70));
    d.setExclusive(lineA, 120);
    EXPECT_EQ(d.firstHolder(lineA), CpuId(120));
    d.demoteOwner(lineA);
    d.addSharer(lineA, 3);
    EXPECT_EQ(d.firstHolder(lineA), CpuId(3));
}

TEST(Directory, OwnedLineHoldsOnlyTheOwnersBit)
{
    // Every transition keeps the invariant ownershipCheck() tests.
    CoherenceDirectory d;
    d.configure(128);
    d.addSharer(lineA, 1);
    d.addSharer(lineA, 80);
    d.setExclusive(lineA, 100);
    d.setExclusive(lineB, 5);
    d.demoteOwner(lineB);
    d.addSharer(lineB, 99);
    d.remove(lineB, 5);
    EXPECT_EQ(d.ownershipCheck(), "");
    EXPECT_FALSE(d.holds(1, lineA));
    EXPECT_FALSE(d.holds(80, lineA));
    EXPECT_TRUE(d.holds(100, lineA));
}

TEST(Directory, IndependentLines)
{
    CoherenceDirectory d;
    d.setExclusive(lineA, 1);
    d.setExclusive(lineB, 2);
    EXPECT_TRUE(d.holds(1, lineA));
    EXPECT_FALSE(d.holds(1, lineB));
}

TEST(Directory, RehashMigratesSlotsIntact)
{
    // Push far past the initial capacity so the flat table grows
    // several times; every entry's owner and sharers must survive
    // each slot migration.
    CoherenceDirectory d;
    const std::size_t cap0 = d.capacity();
    constexpr unsigned n = 3000;
    const auto lineOf = [](unsigned i) {
        return Addr(0x10000) + Addr(i) * 0x100;
    };
    for (unsigned i = 0; i < n; ++i) {
        if (i % 3 == 0)
            d.setExclusive(lineOf(i), CpuId(i % 64));
        else
            d.addSharer(lineOf(i), CpuId(i % 64));
    }
    EXPECT_GT(d.capacity(), cap0);
    EXPECT_EQ(d.size(), std::size_t(n)); // never-erase: all keys live
    for (unsigned i = 0; i < n; ++i) {
        EXPECT_EQ(d.owner(lineOf(i)),
                  i % 3 == 0 ? CpuId(i % 64) : invalidCpu)
            << i;
        EXPECT_EQ(d.firstHolder(lineOf(i)), CpuId(i % 64)) << i;
    }
    // Growth keeps the table under its 3/4 load bound.
    EXPECT_LE(d.size() * 4, d.capacity() * 3);
}

TEST(Directory, ConfigureSizesSharerWords)
{
    // Small machines track sharers in one 64-bit word instead of
    // the compile-time worst case; CPUs beyond the configured count
    // are rejected rather than silently dropped.
    CoherenceDirectory d;
    d.configure(8);
    EXPECT_EQ(d.sharerWords(), 1u);
    d.addSharer(lineA, 7);
    EXPECT_TRUE(d.holds(7, lineA));
    EXPECT_DEATH(d.addSharer(lineB, 64), "cannot track");

    CoherenceDirectory wide;
    wide.configure(1024);
    EXPECT_EQ(wide.sharerWords(), 16u);
    wide.setExclusive(lineA, 1023);
    EXPECT_TRUE(wide.holds(1023, lineA));
    EXPECT_TRUE(wide.owner(lineA) == CpuId(1023));
}

} // namespace
