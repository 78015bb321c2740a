/** @file Unit tests for the global coherence directory. */

#include <cstddef>
#include <cstdint>

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
    EXPECT_TRUE(d.lookup(lineA).idle());
    EXPECT_FALSE(d.holds(0, lineA));
}

TEST(Directory, ExclusiveOwnership)
{
    CoherenceDirectory d;
    d.setExclusive(lineA, 3);
    EXPECT_EQ(d.lookup(lineA).owner, CpuId(3));
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
    EXPECT_EQ(d.lookup(lineA).owner, invalidCpu);
}

TEST(Directory, DemoteOwnerBecomesSharer)
{
    CoherenceDirectory d;
    d.setExclusive(lineA, 5);
    d.demoteOwner(lineA);
    EXPECT_EQ(d.lookup(lineA).owner, invalidCpu);
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
    EXPECT_TRUE(d.lookup(lineA).idle());
}

TEST(Directory, RemoveLeavesIdleEntriesUntracked)
{
    // Never-erase contract: remove() leaves the slot in place (an
    // idle entry keeps its L3-residency mask), but idle entries stop
    // counting as tracked lines.
    CoherenceDirectory d;
    d.addSharer(lineA, 0);
    d.addSharer(lineB, 0);
    EXPECT_EQ(d.trackedLines(), 2u);
    d.remove(lineA, 0);
    EXPECT_EQ(d.trackedLines(), 1u);
    EXPECT_TRUE(d.lookup(lineA).idle());
}

TEST(Directory, L3ResidencyMaskTracksChips)
{
    CoherenceDirectory d;
    d.setL3Resident(lineA, 0);
    d.setL3Resident(lineA, 3);
    EXPECT_EQ(d.lookup(lineA).l3Mask, 0b1001u);
    d.clearL3Resident(lineA, 0);
    EXPECT_EQ(d.lookup(lineA).l3Mask, 0b1000u);
    d.clearL3Resident(lineA, 3);
    EXPECT_EQ(d.lookup(lineA).l3Mask, 0u);
    // Lines the mask never saw read as not resident anywhere.
    EXPECT_EQ(d.lookup(lineB).l3Mask, 0u);
}

TEST(Directory, L3MaskSurvivesHolderRemoval)
{
    // The residency mask outlives the holders: an L3 line with no
    // current CPU holder is still resident on its chip.
    CoherenceDirectory d;
    d.addSharer(lineA, 2);
    d.setL3Resident(lineA, 1);
    d.remove(lineA, 2);
    EXPECT_TRUE(d.lookup(lineA).idle());
    EXPECT_EQ(d.lookup(lineA).l3Mask, 0b10u);
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
    const auto others = d.sharersExcept(lineA, 2);
    EXPECT_EQ(others.size(), 2u);
    EXPECT_EQ(others[0], CpuId(1));
    EXPECT_EQ(others[1], CpuId(3));
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
    // several times; every entry's owner, sharers, and residency
    // mask must survive each slot migration.
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
        if (i % 2 == 0)
            d.setL3Resident(lineOf(i), i % 8);
    }
    EXPECT_GT(d.capacity(), cap0);
    EXPECT_EQ(d.size(), std::size_t(n)); // never-erase: all keys live
    for (unsigned i = 0; i < n; ++i) {
        const auto e = d.lookup(lineOf(i));
        if (i % 3 == 0)
            EXPECT_EQ(e.owner, CpuId(i % 64)) << i;
        else
            EXPECT_TRUE(e.sharers[i % 64]) << i;
        EXPECT_EQ(e.l3Mask,
                  i % 2 == 0 ? std::uint64_t(1) << (i % 8) : 0u)
            << i;
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
    EXPECT_TRUE(wide.lookup(lineA).owner == CpuId(1023));
}

} // namespace
