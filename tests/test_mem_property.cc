/**
 * @file
 * Memory-subsystem property tests: the cache array against a golden
 * reference LRU model, and the coherence hierarchy under random
 * traffic with randomly rejecting clients.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "mem/hierarchy.hh"

namespace {

using namespace ztx;
using namespace ztx::mem;

// ---------------------------------------------------------------
// CacheArray versus a golden set-associative true-LRU model.
// ---------------------------------------------------------------

/** Straightforward reference implementation. */
class GoldenLru
{
  public:
    GoldenLru(std::uint64_t rows, unsigned assoc)
        : rows_(rows), assoc_(assoc), sets_(rows)
    {
    }

    bool
    contains(Addr line) const
    {
        const auto &set = sets_[row(line)];
        for (const Addr l : set)
            if (l == line)
                return true;
        return false;
    }

    void
    touch(Addr line)
    {
        auto &set = sets_[row(line)];
        set.remove(line);
        set.push_back(line); // back = most recent
    }

    /** @return evicted line, or nullopt. */
    std::optional<Addr>
    insert(Addr line)
    {
        auto &set = sets_[row(line)];
        std::optional<Addr> victim;
        if (set.size() == assoc_) {
            victim = set.front();
            set.pop_front();
        }
        set.push_back(line);
        return victim;
    }

    void
    invalidate(Addr line)
    {
        sets_[row(line)].remove(line);
    }

  private:
    std::uint64_t
    row(Addr line) const
    {
        return (line >> lineSizeLog2) % rows_;
    }

    std::uint64_t rows_;
    unsigned assoc_;
    std::vector<std::list<Addr>> sets_;
};

class CacheArrayFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheArrayFuzz, MatchesGoldenLruModel)
{
    const CacheGeometry geo{8 * 4 * lineSizeBytes, 4}; // 8 rows
    CacheArray dut(geo, "fuzz");
    GoldenLru golden(geo.rows(), geo.assoc);
    Rng rng(GetParam());

    for (int step = 0; step < 20000; ++step) {
        const Addr line = rng.nextBounded(64) * lineSizeBytes;
        switch (rng.nextBounded(4)) {
          case 0: // lookup + touch
            ASSERT_EQ(dut.touch(line), golden.contains(line))
                << "step " << step;
            if (golden.contains(line))
                golden.touch(line);
            break;
          case 1: { // insert if absent
            if (!golden.contains(line)) {
                const auto dut_victim = dut.insert(line);
                const auto gold_victim = golden.insert(line);
                ASSERT_EQ(dut_victim.valid,
                          gold_victim.has_value())
                    << "step " << step;
                if (gold_victim) {
                    ASSERT_EQ(dut_victim.line, *gold_victim)
                        << "step " << step;
                }
            }
            break;
          }
          case 2: // invalidate
            ASSERT_EQ(dut.invalidate(line), golden.contains(line))
                << "step " << step;
            golden.invalidate(line);
            break;
          case 3: // pure membership query
            ASSERT_EQ(dut.contains(line), golden.contains(line))
                << "step " << step;
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheArrayFuzz,
                         ::testing::Values(1u, 2u, 3u, 99u, 1234u));

// ---------------------------------------------------------------
// Hierarchy under random traffic with randomly rejecting clients.
// ---------------------------------------------------------------

/** Client that rejects rejectable XIs with some probability. */
class FlakyClient : public CacheClient
{
  public:
    explicit FlakyClient(std::uint64_t seed, double reject_p)
        : rng_(seed), rejectP_(reject_p)
    {
    }

    XiResponse
    incomingXi(const XiContext &ctx) override
    {
        if ((ctx.kind == XiKind::Demote ||
             ctx.kind == XiKind::Exclusive) &&
            rng_.nextBool(rejectP_)) {
            return XiResponse::Reject;
        }
        return XiResponse::Accept;
    }

    void l1Evicted(Addr, std::uint8_t) override {}

  private:
    Rng rng_;
    double rejectP_;
};

class HierarchyFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(HierarchyFuzz, InvariantsHoldWithRejectingClients)
{
    HierarchyGeometry geo;
    geo.l1 = CacheGeometry{2 * 2 * lineSizeBytes, 2};
    geo.l2 = CacheGeometry{4 * 4 * lineSizeBytes, 4};
    geo.l3 = CacheGeometry{32 * 8 * lineSizeBytes, 8};
    geo.l4 = CacheGeometry{128 * 8 * lineSizeBytes, 8};
    const Topology topo(2, 2, 2);
    Hierarchy hier(topo, LatencyModel{}, geo);

    std::vector<std::unique_ptr<FlakyClient>> clients;
    for (unsigned i = 0; i < topo.numCpus(); ++i) {
        clients.push_back(
            std::make_unique<FlakyClient>(GetParam() * 100 + i,
                                          0.3));
        hier.setClient(i, clients.back().get());
    }

    Rng rng(GetParam());
    unsigned rejected = 0;
    for (int step = 0; step < 8000; ++step) {
        const CpuId cpu = CpuId(rng.nextBounded(topo.numCpus()));
        const Addr line = rng.nextBounded(48) * lineSizeBytes;
        const auto res =
            hier.fetch(cpu, line, rng.nextBool(0.4));
        rejected += res.rejected ? 1 : 0;
        if (!res.rejected) {
            // After a successful fetch the line is locally present.
            ASSERT_TRUE(hier.inL1(cpu, line)) << "step " << step;
            ASSERT_TRUE(hier.directory().holds(cpu, line))
                << "step " << step;
        }
        if (step % 400 == 0)
            hier.checkInvariants();
    }
    hier.checkInvariants();
    // With p = 0.3 rejection, a healthy fraction of the exclusive
    // traffic must actually have been stiff-armed.
    EXPECT_GT(rejected, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HierarchyFuzz,
                         ::testing::Values(11u, 22u, 33u));

// ---------------------------------------------------------------
// AccessResult::source versus a brute-force nearest-holder walk.
// ---------------------------------------------------------------

/** The source of a fetch, from the state before it, by brute force. */
DataSource
referenceSource(const Hierarchy &hier, CpuId cpu, Addr line)
{
    const Topology &topo = hier.topology();
    if (hier.inL1(cpu, line))
        return DataSource::L1;
    if (hier.inL2(cpu, line))
        return DataSource::L2;
    const CoherenceDirectory &dir = hier.directory();
    bool found = false;
    Distance best = Distance::CrossMcm;
    for (CpuId h = 0; h < topo.numCpus(); ++h) {
        if (h == cpu || (dir.owner(line) != h && !dir.holds(h, line)))
            continue;
        const Distance d = topo.distance(cpu, h);
        if (!found || d < best)
            best = d;
        found = true;
    }
    if (found)
        return best == Distance::SameChip  ? DataSource::L3
               : best == Distance::SameMcm ? DataSource::L4
                                           : DataSource::RemoteMcm;
    if (hier.inL3(topo.chipOf(cpu), line))
        return DataSource::L3;
    if (hier.inL4(topo.mcmOf(cpu), line))
        return DataSource::L4;
    for (unsigned m = 0; m < topo.numMcms(); ++m)
        if (m != topo.mcmOf(cpu) && hier.inL4(m, line))
            return DataSource::RemoteMcm;
    return DataSource::Memory;
}

class FindSourceFuzz : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FindSourceFuzz, MatchesBruteForceNearestHolder)
{
    // 6 cores x 4 chips x 3 MCMs = 72 CPUs: two sharer words, and
    // chip 10 (CPUs 60-65) straddles the word boundary. Small L3/L4
    // so lines also come from caches no CPU holds them in.
    HierarchyGeometry geo;
    geo.l1 = CacheGeometry{2 * 2 * lineSizeBytes, 2};
    geo.l2 = CacheGeometry{4 * 4 * lineSizeBytes, 4};
    geo.l3 = CacheGeometry{8 * 4 * lineSizeBytes, 4};
    geo.l4 = CacheGeometry{16 * 4 * lineSizeBytes, 4};
    const Topology topo(6, 4, 3);
    Hierarchy hier(topo, LatencyModel{}, geo);

    std::vector<std::unique_ptr<FlakyClient>> clients;
    for (unsigned i = 0; i < topo.numCpus(); ++i) {
        clients.push_back(
            std::make_unique<FlakyClient>(GetParam() * 100 + i, 0.1));
        hier.setClient(i, clients.back().get());
    }

    Rng rng(GetParam());
    std::map<DataSource, unsigned> seen;
    unsigned cross_word_hits = 0;
    for (int step = 0; step < 20000; ++step) {
        // Half the requests come from CPUs 56-71, around the
        // word-straddling chip.
        const CpuId cpu =
            rng.nextBool(0.5) ? CpuId(56 + rng.nextBounded(16))
                              : CpuId(rng.nextBounded(topo.numCpus()));
        const Addr line = rng.nextBounded(40) * lineSizeBytes;
        const DataSource expect = referenceSource(hier, cpu, line);
        // A same-chip supplier on the other side of the word
        // boundary from the requester.
        bool cross_word = false;
        if (expect == DataSource::L3 && topo.chipOf(cpu) == 10)
            for (CpuId h = 60; h < 66; ++h)
                cross_word |= h / 64 != cpu / 64 &&
                              hier.directory().holds(h, line);
        const auto res = hier.fetch(cpu, line, rng.nextBool(0.3));
        if (res.rejected)
            continue;
        ASSERT_EQ(res.source, expect)
            << "step " << step << " cpu " << cpu << " line " << line;
        ++seen[res.source];
        cross_word_hits += cross_word ? 1 : 0;
        if (step % 2000 == 0)
            hier.checkInvariants();
    }
    hier.checkInvariants();
    for (const DataSource src :
         {DataSource::L1, DataSource::L2, DataSource::L3,
          DataSource::L4, DataSource::RemoteMcm, DataSource::Memory})
        EXPECT_GT(seen[src], 0u) << "source " << int(src);
    EXPECT_GT(cross_word_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FindSourceFuzz,
                         ::testing::Values(5u, 6u, 7u));

} // namespace
