/**
 * @file
 * The scheduler's ready set (sim/ready_tree.hh) against an ordered
 * set of (ready time, CPU) pairs: after every write the tree's
 * minimum must be the set's first element, with equal times going to
 * the lower id, absent CPUs never picked, and the largest time that
 * fits a key still ordered below absent.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "sim/ready_tree.hh"

namespace {

using namespace ztx;
using sim::ReadyTree;

/** Check @p tree's minimum against the reference @p ref. */
void
expectSameMin(const ReadyTree &tree,
              const std::set<std::pair<Cycles, CpuId>> &ref)
{
    ASSERT_EQ(tree.empty(), ref.empty());
    if (ref.empty())
        return;
    EXPECT_EQ(tree.minTime(), ref.begin()->first);
    EXPECT_EQ(tree.minId(), ref.begin()->second);
}

TEST(ReadyTree, KeyWidthLeavesRoomForAbsent)
{
    // idBits holds one id above the largest CPU, so the largest
    // time with the largest id still packs below all ones.
    EXPECT_EQ(ReadyTree(1).idBits(), 1u);
    EXPECT_EQ(ReadyTree(2).idBits(), 2u);
    EXPECT_EQ(ReadyTree(3).idBits(), 2u);
    EXPECT_EQ(ReadyTree(144).idBits(), 8u);
    EXPECT_EQ(ReadyTree(1024).idBits(), 11u);
    EXPECT_EQ(ReadyTree(144).maxTime(), (Cycles(1) << 56) - 1);
    for (const unsigned n : {1u, 2u, 3u, 4u, 144u, 1024u}) {
        ReadyTree tree(n);
        EXPECT_TRUE(tree.empty());
        tree.set(n - 1, tree.maxTime());
        ASSERT_FALSE(tree.empty()) << n;
        EXPECT_EQ(tree.minId(), n - 1);
        EXPECT_EQ(tree.minTime(), tree.maxTime());
        tree.set(n - 1, ReadyTree::never);
        EXPECT_TRUE(tree.empty()) << n;
    }
}

TEST(ReadyTree, EqualTimesGoToTheLowerId)
{
    ReadyTree tree(144);
    tree.set(100, 7);
    tree.set(3, 7);
    tree.set(50, 7);
    EXPECT_EQ(tree.minId(), 3u);
    tree.set(3, 8);
    EXPECT_EQ(tree.minId(), 50u);
    tree.set(50, ReadyTree::never);
    EXPECT_EQ(tree.minId(), 100u);
    EXPECT_EQ(tree.minTime(), 7u);
}

TEST(ReadyTree, MatchesOrderedSetReference)
{
    for (const unsigned n : {1u, 2u, 3u, 100u, 144u, 1024u}) {
        SCOPED_TRACE(n);
        Rng rng(0x5eed + n);
        ReadyTree tree(n);
        std::set<std::pair<Cycles, CpuId>> ref;
        std::vector<Cycles> at(n, ReadyTree::never);
        for (unsigned op = 0; op < 20000; ++op) {
            const CpuId id = CpuId(rng.nextBounded(n));
            Cycles t;
            switch (rng.nextBounded(7)) {
              case 0:
                t = ReadyTree::never;
                break;
              case 1:
                t = tree.maxTime();
                break;
              case 2:
                t = rng.nextBounded(tree.maxTime()) + 1;
                break;
              case 3:
                // Rewrite the leaf with the key it holds (absent
                // included): the write changes nothing.
                t = at[id];
                break;
              default:
                // A few distinct times: many equal keys.
                t = rng.nextBounded(4);
                break;
            }
            if (at[id] != ReadyTree::never)
                ref.erase({at[id], id});
            at[id] = t;
            if (t != ReadyTree::never)
                ref.insert({t, id});
            tree.set(id, t);
            expectSameMin(tree, ref);
            if (testing::Test::HasFailure())
                return;
        }
        // Drain in order, the way the scheduler consumes it.
        while (!ref.empty()) {
            const CpuId id = ref.begin()->second;
            ref.erase(ref.begin());
            ASSERT_EQ(tree.minId(), id);
            tree.set(id, ReadyTree::never);
            expectSameMin(tree, ref);
        }
    }
}

TEST(ReadyTree, TimeBeyondTheKeyIsFatal)
{
    // Single-threaded: the death test forks nothing but itself.
    ReadyTree tree(144);
    tree.set(143, tree.maxTime());
    EXPECT_DEATH(tree.set(143, tree.maxTime() + 1),
                 "cpu 143 ready time 72057594037927936 does not fit");
}

} // namespace
