/** @file Unit and invariant tests for the coherent cache hierarchy. */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "mem/hierarchy.hh"

namespace {

using namespace ztx;
using namespace ztx::mem;

/** Scripted XI client: counts XIs, optionally rejects a few. */
class StubClient : public CacheClient
{
  public:
    XiResponse
    incomingXi(const XiContext &ctx) override
    {
        received.push_back(ctx);
        if (rejectBudget > 0 && (ctx.kind == XiKind::Demote ||
                                 ctx.kind == XiKind::Exclusive)) {
            --rejectBudget;
            return XiResponse::Reject;
        }
        return XiResponse::Accept;
    }

    void
    l1Evicted(Addr line, std::uint8_t flags) override
    {
        evicted.emplace_back(line, flags);
    }

    std::vector<XiContext> received;
    std::vector<std::pair<Addr, std::uint8_t>> evicted;
    int rejectBudget = 0;
};

/**
 * Hierarchy + stub clients, small topology, configurable geometry;
 * caches for the first @p cpus slots (all when 0).
 */
struct Rig
{
    explicit Rig(HierarchyGeometry geo = HierarchyGeometry{},
                 Topology topo = Topology(2, 2, 2), unsigned cpus = 0)
        : hier(topo, LatencyModel{}, geo, cpus)
    {
        for (unsigned i = 0; i < hier.builtCpus(); ++i) {
            clients.push_back(std::make_unique<StubClient>());
            hier.setClient(i, clients.back().get());
        }
    }

    Hierarchy hier;
    std::vector<std::unique_ptr<StubClient>> clients;
};

constexpr Addr lineA = 0x10000;
constexpr Addr lineB = 0x20000;

TEST(Hierarchy, ColdFetchComesFromMemory)
{
    Rig rig;
    const auto res = rig.hier.fetch(0, lineA, false);
    EXPECT_FALSE(res.rejected);
    EXPECT_EQ(res.source, DataSource::Memory);
    EXPECT_TRUE(rig.hier.inL1(0, lineA));
    EXPECT_TRUE(rig.hier.inL2(0, lineA));
    EXPECT_TRUE(rig.hier.inL3(0, lineA));
    EXPECT_TRUE(rig.hier.inL4(0, lineA));
    rig.hier.checkInvariants();
}

TEST(Hierarchy, SecondFetchHitsL1)
{
    Rig rig;
    rig.hier.fetch(0, lineA, false);
    const auto res = rig.hier.fetch(0, lineA, false);
    EXPECT_EQ(res.source, DataSource::L1);
    EXPECT_EQ(res.latency, rig.hier.latencyModel().l1Hit);
}

TEST(Hierarchy, ReadSharingSendsNoXi)
{
    Rig rig;
    rig.hier.fetch(0, lineA, false);
    rig.hier.fetch(1, lineA, false);
    EXPECT_TRUE(rig.clients[0]->received.empty());
    EXPECT_TRUE(rig.hier.directory().holds(0, lineA));
    EXPECT_TRUE(rig.hier.directory().holds(1, lineA));
}

TEST(Hierarchy, ReadOfExclusiveLineSendsDemoteXi)
{
    Rig rig;
    rig.hier.fetch(0, lineA, true);
    EXPECT_EQ(rig.hier.directory().owner(lineA), CpuId(0));
    const auto res = rig.hier.fetch(1, lineA, false);
    EXPECT_FALSE(res.rejected);
    ASSERT_EQ(rig.clients[0]->received.size(), 1u);
    EXPECT_EQ(rig.clients[0]->received[0].kind, XiKind::Demote);
    // Previous owner keeps a read-only copy.
    EXPECT_TRUE(rig.hier.inL1(0, lineA));
    EXPECT_TRUE(rig.hier.directory().holds(0, lineA));
    EXPECT_EQ(rig.hier.directory().owner(lineA), invalidCpu);
}

TEST(Hierarchy, WriteOfSharedLineInvalidatesSharers)
{
    Rig rig;
    rig.hier.fetch(0, lineA, false);
    rig.hier.fetch(1, lineA, false);
    const auto res = rig.hier.fetch(2, lineA, true);
    EXPECT_FALSE(res.rejected);
    ASSERT_EQ(rig.clients[0]->received.size(), 1u);
    EXPECT_EQ(rig.clients[0]->received[0].kind, XiKind::ReadOnly);
    ASSERT_EQ(rig.clients[1]->received.size(), 1u);
    EXPECT_FALSE(rig.hier.inL1(0, lineA));
    EXPECT_FALSE(rig.hier.inL2(0, lineA));
    EXPECT_FALSE(rig.hier.directory().holds(0, lineA));
    EXPECT_EQ(rig.hier.directory().owner(lineA), CpuId(2));
    rig.hier.checkInvariants();
}

TEST(Hierarchy, WriteOfExclusiveLineSendsExclusiveXi)
{
    Rig rig;
    rig.hier.fetch(0, lineA, true);
    rig.hier.fetch(1, lineA, true);
    ASSERT_EQ(rig.clients[0]->received.size(), 1u);
    EXPECT_EQ(rig.clients[0]->received[0].kind, XiKind::Exclusive);
    EXPECT_FALSE(rig.hier.inL2(0, lineA));
    EXPECT_EQ(rig.hier.directory().owner(lineA), CpuId(1));
}

TEST(Hierarchy, RejectedXiLeavesStateUntouched)
{
    Rig rig;
    rig.hier.fetch(0, lineA, true);
    rig.clients[0]->rejectBudget = 1;
    const auto res = rig.hier.fetch(1, lineA, true);
    EXPECT_TRUE(res.rejected);
    EXPECT_EQ(res.rejecter, CpuId(0));
    EXPECT_GT(res.latency, 0u);
    EXPECT_EQ(rig.hier.directory().owner(lineA), CpuId(0));
    EXPECT_FALSE(rig.hier.inL2(1, lineA));
    // Retry after the owner stops rejecting succeeds.
    const auto res2 = rig.hier.fetch(1, lineA, true);
    EXPECT_FALSE(res2.rejected);
    EXPECT_EQ(rig.hier.directory().owner(lineA), CpuId(1));
}

TEST(Hierarchy, UpgradeFromSharedToExclusive)
{
    Rig rig;
    rig.hier.fetch(0, lineA, false);
    rig.hier.fetch(1, lineA, false);
    const auto res = rig.hier.fetch(0, lineA, true);
    EXPECT_FALSE(res.rejected);
    EXPECT_EQ(rig.hier.directory().owner(lineA), CpuId(0));
    EXPECT_FALSE(rig.hier.directory().holds(1, lineA));
    // Local data: upgrade is served from the local caches.
    EXPECT_TRUE(res.source == DataSource::L1 ||
                res.source == DataSource::L2);
}

TEST(Hierarchy, InterventionSourceTracksDistance)
{
    Rig rig;
    rig.hier.fetch(0, lineA, true);
    // CPU 1 is on the same chip: data via shared L3.
    auto res = rig.hier.fetch(1, lineA, false);
    EXPECT_EQ(res.source, DataSource::L3);
    // CPU 2 is on the other chip of the MCM.
    rig.hier.fetch(2, lineB, false);
    rig.hier.fetch(0, lineB, true);
    ASSERT_FALSE(rig.hier.inL2(2, lineB));
    auto res2 = rig.hier.fetch(2, lineB, false);
    EXPECT_EQ(res2.source, DataSource::L4);
    // CPU 4 is on the other MCM.
    auto res3 = rig.hier.fetch(4, lineA, false);
    EXPECT_EQ(res3.source, DataSource::RemoteMcm);
}

TEST(Hierarchy, TxMarksSetAndClear)
{
    Rig rig;
    rig.hier.fetch(0, lineA, false);
    rig.hier.markTxRead(0, lineA);
    EXPECT_TRUE(rig.hier.txRead(0, lineA));
    rig.hier.fetch(0, lineB, true);
    rig.hier.markTxDirty(0, lineB);
    EXPECT_TRUE(rig.hier.txDirty(0, lineB));
    rig.hier.clearTxMarks(0);
    EXPECT_FALSE(rig.hier.txRead(0, lineA));
    EXPECT_FALSE(rig.hier.txDirty(0, lineB));
}

TEST(Hierarchy, XiContextCarriesTxBits)
{
    Rig rig;
    rig.hier.fetch(0, lineA, false);
    rig.hier.markTxRead(0, lineA);
    rig.hier.fetch(1, lineA, true);
    ASSERT_EQ(rig.clients[0]->received.size(), 1u);
    EXPECT_TRUE(rig.clients[0]->received[0].txRead);
    EXPECT_FALSE(rig.clients[0]->received[0].txDirty);
    EXPECT_EQ(rig.clients[0]->received[0].requester, CpuId(1));
}

TEST(Hierarchy, KillTxDirtyLinesRemovesFromL1Only)
{
    Rig rig;
    rig.hier.fetch(0, lineA, true);
    rig.hier.markTxDirty(0, lineA);
    rig.hier.killTxDirtyLines(0);
    EXPECT_FALSE(rig.hier.inL1(0, lineA));
    EXPECT_TRUE(rig.hier.inL2(0, lineA));
    EXPECT_TRUE(rig.hier.directory().holds(0, lineA));
    rig.hier.checkInvariants();
}

/** Geometry with a tiny L1 to force associativity evictions. */
HierarchyGeometry
tinyL1Geometry()
{
    HierarchyGeometry geo;
    geo.l1 = CacheGeometry{2 * 2 * lineSizeBytes, 2}; // 2 rows x 2 ways
    geo.l2 = CacheGeometry{8 * 4 * lineSizeBytes, 4};
    geo.l3 = CacheGeometry{64 * 8 * lineSizeBytes, 8};
    geo.l4 = CacheGeometry{256 * 8 * lineSizeBytes, 8};
    return geo;
}

/** Line falling in L1 row @p row (tiny geometry: 2 rows). */
Addr
tinyLine(unsigned row, unsigned k)
{
    return Addr(row + 2 * k) * lineSizeBytes;
}

TEST(Hierarchy, L1EvictionSetsLruExtensionForTxRead)
{
    Rig rig(tinyL1Geometry());
    // Fill row 0 with tx-read lines, then overflow it.
    rig.hier.fetch(0, tinyLine(0, 0), false);
    rig.hier.markTxRead(0, tinyLine(0, 0));
    rig.hier.fetch(0, tinyLine(0, 1), false);
    rig.hier.markTxRead(0, tinyLine(0, 1));
    EXPECT_FALSE(rig.hier.lruExtensionAny(0));
    rig.hier.fetch(0, tinyLine(0, 2), false);
    EXPECT_TRUE(rig.hier.lruExtensionAny(0));
    EXPECT_TRUE(rig.hier.lruExtensionHit(0, tinyLine(0, 0)));
    // Row 1 is unaffected.
    EXPECT_FALSE(rig.hier.lruExtensionHit(0, tinyLine(1, 0)));
    // The client saw the L1 eviction notification.
    EXPECT_FALSE(rig.clients[0]->evicted.empty());
}

TEST(Hierarchy, LruExtensionDisabledDeliversLruXi)
{
    Rig rig(tinyL1Geometry());
    rig.hier.setLruExtensionEnabled(false);
    rig.hier.fetch(0, tinyLine(0, 0), false);
    rig.hier.markTxRead(0, tinyLine(0, 0));
    rig.hier.fetch(0, tinyLine(0, 1), false);
    rig.hier.fetch(0, tinyLine(0, 2), false);
    // The displaced tx-read line arrives as a non-rejectable LRU XI.
    bool saw_lru = false;
    for (const auto &ctx : rig.clients[0]->received)
        if (ctx.kind == XiKind::Lru && ctx.txRead)
            saw_lru = true;
    EXPECT_TRUE(saw_lru);
}

TEST(Hierarchy, L2EvictionInvalidatesL1AndDirectory)
{
    Rig rig(tinyL1Geometry());
    // Overflow one L2 row (4 ways, tiny geometry has 8 rows).
    std::vector<Addr> lines;
    for (unsigned k = 0; k < 5; ++k)
        lines.push_back(Addr(8 * k) * lineSizeBytes); // L2 row 0
    for (const Addr line : lines)
        rig.hier.fetch(0, line, false);
    // The first line is the LRU way and must be gone everywhere.
    EXPECT_FALSE(rig.hier.inL2(0, lines[0]));
    EXPECT_FALSE(rig.hier.inL1(0, lines[0]));
    EXPECT_FALSE(rig.hier.directory().holds(0, lines[0]));
    // An LRU XI was delivered for it.
    bool saw_lru = false;
    for (const auto &ctx : rig.clients[0]->received)
        if (ctx.kind == XiKind::Lru && ctx.line == lines[0])
            saw_lru = true;
    EXPECT_TRUE(saw_lru);
    rig.hier.checkInvariants();
}

TEST(Hierarchy, L3EvictionInvalidatesTheChipsL2Copies)
{
    // A 2-row x 2-way L3: CPU 0 (same chip as CPU 1) pushes two
    // more lines through L3 row 0 and evicts the line CPU 1 holds.
    HierarchyGeometry geo = tinyL1Geometry();
    geo.l3 = CacheGeometry{2 * 2 * lineSizeBytes, 2};
    Rig rig(geo);
    const auto l3Row0 = [](unsigned k) {
        return Addr(2 * k) * lineSizeBytes;
    };
    rig.hier.fetch(1, l3Row0(0), false);
    rig.hier.fetch(0, l3Row0(1), false);
    rig.hier.fetch(0, l3Row0(2), false);
    EXPECT_FALSE(rig.hier.inL3(0, l3Row0(0)));
    EXPECT_FALSE(rig.hier.inL2(1, l3Row0(0)));
    EXPECT_FALSE(rig.hier.inL1(1, l3Row0(0)));
    EXPECT_FALSE(rig.hier.directory().holds(1, l3Row0(0)));
    bool saw_lru = false;
    for (const auto &ctx : rig.clients[1]->received)
        saw_lru |= ctx.kind == XiKind::Lru && ctx.line == l3Row0(0);
    EXPECT_TRUE(saw_lru);
    rig.hier.checkInvariants();
    // The refetch misses the L2 and finds the line in the L4.
    EXPECT_EQ(rig.hier.fetch(1, l3Row0(0), false).source,
              DataSource::L4);
}

TEST(Hierarchy, RandomTrafficKeepsInvariants)
{
    Rig rig(tinyL1Geometry());
    Rng rng(1234);
    for (int i = 0; i < 5000; ++i) {
        const CpuId cpu = CpuId(rng.nextBounded(8));
        const Addr line = rng.nextBounded(64) * lineSizeBytes;
        const bool exclusive = rng.nextBool(0.3);
        // Stub clients never reject with rejectBudget == 0.
        rig.hier.fetch(cpu, line, exclusive);
        if (i % 500 == 0)
            rig.hier.checkInvariants();
    }
    rig.hier.checkInvariants();
}

TEST(Hierarchy, SingleWriterInvariantUnderRandomTraffic)
{
    Rig rig;
    Rng rng(99);
    for (int i = 0; i < 3000; ++i) {
        const CpuId cpu = CpuId(rng.nextBounded(8));
        const Addr line = rng.nextBounded(16) * lineSizeBytes;
        rig.hier.fetch(cpu, line, rng.nextBool(0.5));
        const CpuId owner = rig.hier.directory().owner(line);
        if (owner != invalidCpu) {
            // Exclusive owner implies no other holder.
            for (unsigned other = 0; other < 8; ++other) {
                if (CpuId(other) != owner) {
                    EXPECT_FALSE(rig.hier.inL2(other, line));
                }
            }
        }
    }
}

/**
 * 2 cores x 3 chips x 2 MCMs with caches for CPUs 0-2 only: chip 1
 * is half built (CPU 3 is not), chip 2 shares MCM 0 but has no L3,
 * and MCM 1 has neither L3s nor an L4. Small L3/L4 so evictions run
 * through the partly built chip and MCM.
 */
constexpr unsigned partialCpus = 3;

Topology
partialTopology()
{
    return Topology(2, 3, 2);
}

HierarchyGeometry
partialGeometry()
{
    HierarchyGeometry geo = tinyL1Geometry();
    geo.l3 = CacheGeometry{2 * 2 * lineSizeBytes, 2};
    geo.l4 = CacheGeometry{4 * 2 * lineSizeBytes, 2};
    return geo;
}

/** Random fetches by CPUs 0..partialCpus-1; checks as it goes. */
void
partialTraffic(Hierarchy &hier)
{
    Rng rng(4321);
    for (int i = 0; i < 4000; ++i) {
        const CpuId cpu = CpuId(rng.nextBounded(partialCpus));
        const Addr line = rng.nextBounded(48) * lineSizeBytes;
        hier.fetch(cpu, line, rng.nextBool(0.3));
        if (i % 400 == 0) {
            hier.checkInvariants();
            ASSERT_EQ(hier.indexCheck(), "");
        }
    }
    hier.checkInvariants();
    ASSERT_EQ(hier.indexCheck(), "");
}

TEST(Hierarchy, PartialBuildKeepsOnlyReachableCaches)
{
    Rig rig(partialGeometry(), partialTopology(), partialCpus);
    EXPECT_EQ(rig.hier.builtCpus(), partialCpus);
    partialTraffic(rig.hier);
    EXPECT_GT(rig.hier.stats().value("l3.evict"), 0u);
    EXPECT_GT(rig.hier.stats().value("l4.evict"), 0u);
    // Caches that were not built answer "absent".
    for (unsigned k = 0; k < 48; ++k) {
        const Addr line = Addr(k) * lineSizeBytes;
        EXPECT_FALSE(rig.hier.inL3(2, line));
        EXPECT_FALSE(rig.hier.inL3(5, line));
        EXPECT_FALSE(rig.hier.inL4(1, line));
    }
}

TEST(Hierarchy, PartialBuildMatchesFullBuild)
{
    // The same traffic on a hierarchy that builds every slot: the
    // caches the partial build skips stay empty there, so stats and
    // every XI the running CPUs see are identical.
    Rig partial(partialGeometry(), partialTopology(), partialCpus);
    Rig full(partialGeometry(), partialTopology());
    partialTraffic(partial.hier);
    partialTraffic(full.hier);
    EXPECT_EQ(partial.hier.stats().toJson().dump(),
              full.hier.stats().toJson().dump());
    for (unsigned cpu = 0; cpu < partialCpus; ++cpu) {
        const auto &a = partial.clients[cpu]->received;
        const auto &b = full.clients[cpu]->received;
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].kind, b[i].kind);
            EXPECT_EQ(a[i].line, b[i].line);
            EXPECT_EQ(a[i].requester, b[i].requester);
        }
        EXPECT_EQ(partial.clients[cpu]->evicted,
                  full.clients[cpu]->evicted);
    }
    for (unsigned chip = 0; chip < partialTopology().numChips(); ++chip)
        for (unsigned k = 0; k < 48; ++k)
            EXPECT_EQ(partial.hier.inL3(chip, Addr(k) * lineSizeBytes),
                      full.hier.inL3(chip, Addr(k) * lineSizeBytes));
}

TEST(HierarchyDeathTest, UnbuiltCpuEntryPointsPanic)
{
    Hierarchy hier(partialTopology(), LatencyModel{},
                   HierarchyGeometry{}, partialCpus);
    StubClient client;
    EXPECT_DEATH(hier.setClient(3, &client),
                 "setClient: cpu 3 has no caches \\(3 CPUs built\\)");
    EXPECT_DEATH(hier.squeezeCapacity(11, 1, 1),
                 "squeezeCapacity: cpu 11 has no caches");
    EXPECT_DEATH(hier.flushCpuCaches(3),
                 "flushCpuCaches: cpu 3 has no caches");
    EXPECT_DEATH(hier.inL1(4, lineA), "inL1: cpu 4 has no caches");
    EXPECT_DEATH(hier.inL2(5, lineA), "inL2: cpu 5 has no caches");
}

TEST(HierarchyDeathTest, MoreCpusThanSlotsIsFatal)
{
    EXPECT_DEATH(Hierarchy(partialTopology(), LatencyModel{},
                           HierarchyGeometry{}, 13),
                 "hierarchy of 13 CPUs exceeds topology capacity 12");
}

TEST(Hierarchy, FetchCountsAppearInStats)
{
    Rig rig;
    rig.hier.fetch(0, lineA, false);
    rig.hier.fetch(0, lineA, false);
    EXPECT_EQ(rig.hier.stats().value("fetch.total"), 2u);
    EXPECT_EQ(rig.hier.stats().value("fetch.l1_hit"), 1u);
}

} // namespace
