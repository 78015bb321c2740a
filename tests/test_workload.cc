/**
 * @file
 * Workload harness tests: correctness of every synchronization
 * method under the update benchmark, the hash table, the queue, and
 * the footprint Monte-Carlo — plus coarse qualitative checks of the
 * performance relations the paper reports.
 */

#include <gtest/gtest.h>

#include "workload/footprint.hh"
#include "workload/hashtable.hh"
#include "workload/layout.hh"
#include "workload/list_set.hh"
#include "workload/queue.hh"
#include "workload/update_bench.hh"
#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using namespace ztx::workload;

UpdateBenchConfig
baseConfig(SyncMethod method, unsigned cpus, unsigned pool,
           unsigned vars)
{
    UpdateBenchConfig cfg;
    cfg.method = method;
    cfg.cpus = cpus;
    cfg.poolSize = pool;
    cfg.varsPerOp = vars;
    cfg.iterations = 100;
    cfg.machine = smallConfig(cpus);
    return cfg;
}

class UpdateBenchCorrectness
    : public ::testing::TestWithParam<SyncMethod>
{
};

TEST_P(UpdateBenchCorrectness, NoLostUpdates)
{
    // Every synchronized method must produce exactly
    // cpus * iterations * varsPerOp increments.
    const auto cfg = baseConfig(GetParam(), 4, 10, 4);
    const auto res = runUpdateBench(cfg);
    EXPECT_EQ(res.poolSum, 4u * 100u * 4u);
    EXPECT_GT(res.throughput, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Methods, UpdateBenchCorrectness,
                         ::testing::Values(SyncMethod::CoarseLock,
                                           SyncMethod::TBegin,
                                           SyncMethod::TBeginc),
                         [](const auto &info) {
                             std::string n =
                                 syncMethodName(info.param);
                             for (auto &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(UpdateBench, FineLockSingleVarIsCorrect)
{
    const auto cfg = baseConfig(SyncMethod::FineLock, 4, 10, 1);
    const auto res = runUpdateBench(cfg);
    EXPECT_EQ(res.poolSum, 4u * 100u);
}

TEST(UpdateBench, UnsynchronizedLosesUpdatesUnderContention)
{
    const auto cfg = baseConfig(SyncMethod::None, 4, 1, 1);
    const auto res = runUpdateBench(cfg);
    EXPECT_LT(res.poolSum, 4u * 100u);
}

TEST(UpdateBench, ReadOnlyLeavesPoolUntouched)
{
    auto cfg = baseConfig(SyncMethod::RwLock, 2, 10, 4);
    cfg.readOnly = true;
    const auto res = runUpdateBench(cfg);
    EXPECT_EQ(res.poolSum, 0u);
    EXPECT_GT(res.throughput, 0.0);
}

TEST(UpdateBench, TBegincReadOnly)
{
    auto cfg = baseConfig(SyncMethod::TBeginc, 2, 10, 4);
    cfg.readOnly = true;
    const auto res = runUpdateBench(cfg);
    EXPECT_EQ(res.poolSum, 0u);
    EXPECT_GT(res.txCommits, 0u);
}

TEST(UpdateBench, DeterministicForSeed)
{
    const auto cfg = baseConfig(SyncMethod::TBegin, 4, 10, 4);
    const auto a = runUpdateBench(cfg);
    const auto b = runUpdateBench(cfg);
    EXPECT_EQ(a.meanRegionCycles, b.meanRegionCycles);
    EXPECT_EQ(a.txAborts, b.txAborts);
}

TEST(UpdateBench, SingleCpuTxFasterThanLock)
{
    // Paper §IV: with one CPU and an L1-resident lock, transactions
    // outperform lock/unlock by about 30% (shorter path length).
    auto lock_cfg = baseConfig(SyncMethod::CoarseLock, 1, 1, 1);
    lock_cfg.iterations = 400;
    auto tx_cfg = baseConfig(SyncMethod::TBegin, 1, 1, 1);
    tx_cfg.iterations = 400;
    const auto lock_res = runUpdateBench(lock_cfg);
    const auto tx_res = runUpdateBench(tx_cfg);
    EXPECT_GT(tx_res.throughput, lock_res.throughput);
    // The advantage should be substantial but bounded.
    EXPECT_LT(tx_res.throughput, 2.0 * lock_res.throughput);
}

TEST(UpdateBench, ConstrainedAndUnconstrainedComparable)
{
    // Paper: ~0.4% apart. The in-order scalar cost model charges
    // the figure-1 preamble (retry-count init + fallback-lock test)
    // explicitly, which a 3-wide OOO core hides almost entirely, so
    // our gap is larger; we assert "same small envelope" (<35%) and
    // record the deviation in EXPERIMENTS.md.
    auto a = baseConfig(SyncMethod::TBegin, 1, 1, 1);
    a.iterations = 400;
    auto b = baseConfig(SyncMethod::TBeginc, 1, 1, 1);
    b.iterations = 400;
    const double ta = runUpdateBench(a).throughput;
    const double tb = runUpdateBench(b).throughput;
    EXPECT_LT(std::abs(ta - tb) / ta, 0.35);
}

TEST(UpdateBench, TxScalesBetterThanCoarseLock)
{
    // Low contention (pool 1000): transactional throughput at 8
    // CPUs should clearly beat the coarse lock's.
    auto lock_cfg = baseConfig(SyncMethod::CoarseLock, 8, 1000, 4);
    auto tx_cfg = baseConfig(SyncMethod::TBeginc, 8, 1000, 4);
    const auto lock_res = runUpdateBench(lock_cfg);
    const auto tx_res = runUpdateBench(tx_cfg);
    EXPECT_GT(tx_res.throughput, 1.5 * lock_res.throughput);
}

TEST(UpdateBench, ReferenceThroughputPositive)
{
    const double ref = referenceThroughput(smallConfig(2), 200);
    EXPECT_GT(ref, 0.0);
}

TEST(HashTable, LockAndElisionAgreeFunctionally)
{
    for (const bool elide : {false, true}) {
        HashTableBenchConfig cfg;
        cfg.cpus = 4;
        cfg.iterations = 150;
        cfg.useElision = elide;
        cfg.machine = smallConfig(4);
        const auto res = runHashTableBench(cfg);
        EXPECT_GT(res.throughput, 0.0) << elide;
        // The pre-filled keys stay present.
        EXPECT_GE(res.occupiedBuckets, cfg.keySpace / 2) << elide;
        if (elide) {
            EXPECT_GT(res.txCommits, 0u);
        }
    }
}

TEST(HashTable, ElisionScalesBetterThanLock)
{
    HashTableBenchConfig lock_cfg;
    lock_cfg.cpus = 8;
    lock_cfg.iterations = 150;
    lock_cfg.useElision = false;
    lock_cfg.machine = smallConfig(8);
    HashTableBenchConfig tx_cfg = lock_cfg;
    tx_cfg.useElision = true;
    const auto lock_res = runHashTableBench(lock_cfg);
    const auto tx_res = runHashTableBench(tx_cfg);
    EXPECT_GT(tx_res.throughput, 1.3 * lock_res.throughput);
}

TEST(Queue, CountsConsistentUnderLock)
{
    QueueBenchConfig cfg;
    cfg.cpus = 4;
    cfg.iterations = 200;
    cfg.useConstrainedTx = false;
    cfg.machine = smallConfig(4);
    const auto res = runQueueBench(cfg);
    const std::uint64_t enqueued = 4ull * 200;
    EXPECT_EQ(enqueued - res.dequeuedNonEmpty, res.finalLength);
}

TEST(Queue, CountsConsistentUnderConstrainedTx)
{
    QueueBenchConfig cfg;
    cfg.cpus = 4;
    cfg.iterations = 200;
    cfg.useConstrainedTx = true;
    cfg.machine = smallConfig(4);
    const auto res = runQueueBench(cfg);
    const std::uint64_t enqueued = 4ull * 200;
    EXPECT_EQ(enqueued - res.dequeuedNonEmpty, res.finalLength);
    EXPECT_GT(res.txCommits, 0u);
}

TEST(Queue, ConstrainedTxFasterThanLock)
{
    QueueBenchConfig lock_cfg;
    lock_cfg.cpus = 4;
    lock_cfg.iterations = 200;
    lock_cfg.useConstrainedTx = false;
    lock_cfg.machine = smallConfig(4);
    QueueBenchConfig tx_cfg = lock_cfg;
    tx_cfg.useConstrainedTx = true;
    const auto lock_res = runQueueBench(lock_cfg);
    const auto tx_res = runQueueBench(tx_cfg);
    EXPECT_GT(tx_res.throughput, lock_res.throughput);
}

// ---------------------------------------------------------------
// Each ADT runner's structure fields at seed 1, pinned to the values
// the runners gave when each walked its structure itself, before the
// oracle's walk became the only one.
// ---------------------------------------------------------------

TEST(AdtRunnerPinned, ListSetSeed1)
{
    ListSetBenchConfig cfg;
    cfg.cpus = 4;
    cfg.useElision = true;
    cfg.iterations = 100;
    cfg.opLog = true;
    const auto res = runListSetBench(cfg);
    EXPECT_EQ(res.finalLength, 37u);
    EXPECT_TRUE(res.sorted);
    EXPECT_TRUE(res.lengthConsistent);
    EXPECT_TRUE(res.oracle.ok) << res.oracle.summary();
}

TEST(AdtRunnerPinned, QueueSeed1)
{
    QueueBenchConfig cfg;
    cfg.cpus = 4;
    cfg.iterations = 100;
    cfg.opLog = true;
    const auto res = runQueueBench(cfg);
    EXPECT_EQ(res.finalLength, 0u);
    EXPECT_EQ(res.dequeuedNonEmpty, 400u);
    EXPECT_TRUE(res.oracle.ok) << res.oracle.summary();
}

TEST(AdtRunnerPinned, HashTableSeed1)
{
    HashTableBenchConfig cfg;
    cfg.cpus = 4;
    cfg.useElision = true;
    cfg.putPercent = 50;
    cfg.keySpace = 700;
    cfg.iterations = 100;
    cfg.opLog = true;
    const auto res = runHashTableBench(cfg);
    EXPECT_EQ(res.occupiedBuckets, 620u);
    EXPECT_TRUE(res.oracle.ok) << res.oracle.summary();
}

TEST(Footprint, SmallTransactionsNeverAbort)
{
    FootprintConfig cfg;
    cfg.trials = 30;
    EXPECT_EQ(measureFootprintAbortRate(20, cfg), 0.0);
}

TEST(Footprint, ExtensionMovesTheWall)
{
    FootprintConfig with;
    with.trials = 40;
    FootprintConfig without = with;
    without.machine.tm.lruExtensionEnabled = false;
    // At 300 lines the L1-limited machine aborts nearly always; the
    // L2-limited (extension) machine nearly never.
    const double r_without = measureFootprintAbortRate(300, without);
    const double r_with = measureFootprintAbortRate(300, with);
    EXPECT_GT(r_without, 0.8);
    EXPECT_LT(r_with, 0.2);
}

} // namespace
