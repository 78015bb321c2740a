/**
 * @file
 * Randomized equivalence of the indexed per-access hot path against
 * naive reference models.
 *
 * The production GatheringStoreCache answers overlay/store/XI
 * queries from a block map (open-addressed, one entry per block)
 * and an occupancy bitmap; the production CacheArray keeps per-row
 * heads (valid mask + pool slot), SoA pools allocated on a row's
 * first insert, and fused probes. Both claim
 * bit-identical semantics to the historical linear scans. These
 * tests drive thousands of randomized mixed operations through the
 * production structures and through straight-line reference models
 * (a scan-based store cache, a true-LRU map array) and compare every
 * observable — query results, victim choices, live counts, and the
 * full memory image — after every operation, plus the structures'
 * own indexCheck() ground-truth verification.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bitset>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hh"
#include "core/store_cache.hh"
#include "mem/cache_array.hh"
#include "mem/main_memory.hh"

namespace {

using namespace ztx;
using core::GatheringStoreCache;
using core::storeCacheBlockAlign;
using core::storeCacheBlockBytes;
using mem::CacheArray;
using mem::CacheGeometry;
using mem::MainMemory;

/**
 * The historical gathering store cache: a flat entry array with
 * linear scans everywhere, mirroring the pre-index implementation
 * operation for operation (same eviction choice, same overflow
 * condition, same write-back order). It keeps a transactional class
 * per entry; the production cache's transaction mode must match it
 * when every store inside a transaction is transactional, as the
 * CPU issues them.
 */
class RefStoreCache
{
  public:
    explicit RefStoreCache(unsigned num_entries)
        : entries_(num_entries)
    {
    }

    bool
    store(Addr addr, const std::uint8_t *bytes, unsigned len,
          bool transactional, bool ntstg, MainMemory &memory)
    {
        while (len > 0) {
            const Addr block = storeCacheBlockAlign(addr);
            const unsigned in_block = unsigned(std::min<std::uint64_t>(
                len, block + storeCacheBlockBytes - addr));
            Entry *entry = nullptr;
            for (auto &e : entries_) {
                if (e.live && !e.closed && e.block == block &&
                    e.transactional == transactional) {
                    entry = &e;
                    break;
                }
            }
            if (!entry) {
                for (auto &e : entries_) {
                    if (!e.live) {
                        entry = &e;
                        break;
                    }
                }
                if (!entry) {
                    Entry *oldest = nullptr;
                    for (auto &e : entries_) {
                        if (!e.transactional &&
                            (!oldest || e.seq < oldest->seq))
                            oldest = &e;
                    }
                    if (!oldest)
                        return false; // all-transactional overflow
                    writeBack(*oldest, memory);
                    oldest->live = false;
                    entry = oldest;
                }
                entry->live = true;
                entry->transactional = transactional;
                entry->closed = false;
                entry->block = block;
                entry->seq = ++seq_;
                entry->valid.reset();
                entry->ntstg.reset();
            }
            const std::uint64_t off = addr - entry->block;
            for (unsigned i = 0; i < in_block; ++i) {
                const std::uint64_t b = off + i;
                entry->data[b] = bytes[i];
                entry->valid.set(b);
                if (ntstg)
                    entry->ntstg.set(b / 8);
            }
            addr += in_block;
            bytes += in_block;
            len -= in_block;
        }
        return true;
    }

    void
    overlay(Addr addr, unsigned len, std::uint8_t *buf) const
    {
        std::vector<const Entry *> hits;
        for (const auto &e : entries_) {
            if (e.live && e.block < addr + len &&
                addr < e.block + storeCacheBlockBytes)
                hits.push_back(&e);
        }
        std::sort(hits.begin(), hits.end(),
                  [](const Entry *a, const Entry *b) {
                      return a->seq < b->seq;
                  });
        for (const Entry *e : hits) {
            const Addr lo = std::max(addr, e->block);
            const Addr hi = std::min(addr + len,
                                     e->block + storeCacheBlockBytes);
            for (Addr b = lo; b < hi; ++b) {
                if (e->valid[b - e->block])
                    buf[b - addr] = e->data[b - e->block];
            }
        }
    }

    void
    closeAllEntries(MainMemory &memory)
    {
        for (auto &e : entries_) {
            if (!e.live)
                continue;
            writeBack(e, memory);
            e.live = false;
        }
    }

    void
    commitTransaction(MainMemory &memory)
    {
        for (auto &e : entries_) {
            if (!e.live || !e.transactional)
                continue;
            writeBack(e, memory);
            e.transactional = false;
            e.ntstg.reset();
        }
    }

    void
    abortTransaction(MainMemory &memory)
    {
        for (auto &e : entries_) {
            if (!e.live || !e.transactional)
                continue;
            for (std::uint64_t dw = 0;
                 dw < storeCacheBlockBytes / 8; ++dw) {
                if (!e.ntstg[dw])
                    continue;
                for (std::uint64_t b = dw * 8; b < dw * 8 + 8; ++b)
                    if (e.valid[b])
                        memory.writeByte(e.block + b, e.data[b]);
            }
            e.live = false;
        }
    }

    bool
    hasTransactionalLine(Addr line) const
    {
        for (const auto &e : entries_)
            if (e.live && e.transactional &&
                lineAlign(e.block) == line)
                return true;
        return false;
    }

    bool
    hasAnyLine(Addr line) const
    {
        for (const auto &e : entries_)
            if (e.live && lineAlign(e.block) == line)
                return true;
        return false;
    }

    void
    drainLine(Addr line, MainMemory &memory)
    {
        for (auto &e : entries_) {
            if (e.live && !e.transactional &&
                lineAlign(e.block) == line) {
                writeBack(e, memory);
                e.live = false;
            }
        }
    }

    void
    drainAll(MainMemory &memory)
    {
        for (auto &e : entries_) {
            if (e.live && !e.transactional) {
                writeBack(e, memory);
                e.live = false;
            }
        }
    }

    unsigned
    liveEntries() const
    {
        unsigned n = 0;
        for (const auto &e : entries_)
            n += e.live ? 1 : 0;
        return n;
    }

    unsigned
    liveTransactionalEntries() const
    {
        unsigned n = 0;
        for (const auto &e : entries_)
            n += (e.live && e.transactional) ? 1 : 0;
        return n;
    }

  private:
    struct Entry
    {
        bool live = false;
        bool transactional = false;
        bool closed = false;
        Addr block = 0;
        std::uint64_t seq = 0;
        std::array<std::uint8_t, storeCacheBlockBytes> data{};
        std::bitset<storeCacheBlockBytes> valid;
        std::bitset<storeCacheBlockBytes / 8> ntstg;
    };

    static void
    writeBack(const Entry &entry, MainMemory &memory)
    {
        for (std::uint64_t b = 0; b < storeCacheBlockBytes; ++b)
            if (entry.valid[b])
                memory.writeByte(entry.block + b, entry.data[b]);
    }

    std::vector<Entry> entries_;
    std::uint64_t seq_ = 0;
};

/** Addresses confined to a few lines so entries collide heavily. */
Addr
pickAddr(Rng &rng, unsigned lines)
{
    return Addr(rng.nextBounded(lines)) * lineSizeBytes +
           rng.nextBounded(lineSizeBytes);
}

TEST(HotPathProperty, StoreCacheMatchesScanReference)
{
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        Rng rng(seed);
        // 8 entries against 6 lines (12 blocks): gather, evict, and
        // all-transactional overflow paths are all reachable.
        GatheringStoreCache dut(8);
        RefStoreCache ref(8);
        MainMemory dut_mem;
        MainMemory ref_mem;
        constexpr unsigned kLines = 6;
        bool in_tx = false;

        // Write-back may skip clean entries (each block reaches
        // memory once per store burst), so memory itself, not only
        // the merged view, must match after every boundary or drain.
        const auto expect_same_image = [&](const char *what) {
            std::vector<std::uint8_t> dut_img(kLines * lineSizeBytes);
            std::vector<std::uint8_t> ref_img(kLines * lineSizeBytes);
            dut_mem.readBlock(0, dut_img.data(), dut_img.size());
            ref_mem.readBlock(0, ref_img.data(), ref_img.size());
            for (std::size_t a = 0; a < dut_img.size(); ++a)
                ASSERT_EQ(dut_img[a], ref_img[a])
                    << "memory byte " << a << " diverged after "
                    << what << " (seed " << seed << ")";
        };
        for (unsigned op = 0; op < 4000; ++op) {
            const unsigned kind = unsigned(rng.nextBounded(100));
            if (kind < 55) {
                // Mixed-size store, transactional exactly inside a
                // tx, NTSTG on a transactional minority.
                const Addr addr = pickAddr(rng, kLines);
                const unsigned len =
                    1u + unsigned(rng.nextBounded(16));
                std::uint8_t bytes[16];
                for (unsigned i = 0; i < len; ++i)
                    bytes[i] = std::uint8_t(rng.next());
                const bool ntstg = in_tx && rng.nextBool(0.15);
                const bool ok =
                    dut.store(addr, bytes, len, ntstg, dut_mem);
                const bool ref_ok = ref.store(addr, bytes, len, in_tx,
                                              ntstg, ref_mem);
                ASSERT_EQ(ok, ref_ok) << "store overflow diverged";
                if (!ok) {
                    // Footprint overflow: the architecture aborts.
                    dut.abortTransaction(dut_mem);
                    ref.abortTransaction(ref_mem);
                    in_tx = false;
                    expect_same_image("overflow abort");
                }
            } else if (kind < 70) {
                // Load overlay across a random window.
                const Addr addr = pickAddr(rng, kLines);
                const unsigned len =
                    1u + unsigned(rng.nextBounded(32));
                std::uint8_t dut_buf[32];
                std::uint8_t ref_buf[32];
                dut_mem.readBlock(addr, dut_buf, len);
                ref_mem.readBlock(addr, ref_buf, len);
                dut.overlay(addr, len, dut_buf);
                ref.overlay(addr, len, ref_buf);
                for (unsigned i = 0; i < len; ++i)
                    ASSERT_EQ(dut_buf[i], ref_buf[i])
                        << "overlay byte " << i << " diverged";
            } else if (kind < 80) {
                // Incoming-XI queries (aligned and unaligned).
                Addr line = lineAlign(pickAddr(rng, kLines));
                if (rng.nextBool(0.2))
                    line += 1 + rng.nextBounded(lineSizeBytes - 1);
                ASSERT_EQ(dut.inTransaction() && dut.hasAnyLine(line),
                          ref.hasTransactionalLine(line));
                ASSERT_EQ(dut.hasAnyLine(line),
                          ref.hasAnyLine(line));
            } else if (kind < 86) {
                const Addr line = lineAlign(pickAddr(rng, kLines));
                dut.drainLine(line, dut_mem);
                ref.drainLine(line, ref_mem);
                expect_same_image("drainLine");
            } else if (kind < 90) {
                dut.drainAll(dut_mem);
                ref.drainAll(ref_mem);
                expect_same_image("drainAll");
            } else if (kind < 96) {
                // Transaction boundary: a new outermost TBEGIN
                // drains, TEND commits, abort discards.
                if (!in_tx) {
                    dut.beginTransaction(dut_mem);
                    ref.closeAllEntries(ref_mem);
                    in_tx = true;
                } else if (rng.nextBool(0.5)) {
                    dut.commitTransaction(dut_mem);
                    ref.commitTransaction(ref_mem);
                    in_tx = false;
                } else {
                    dut.abortTransaction(dut_mem);
                    ref.abortTransaction(ref_mem);
                    in_tx = false;
                }
                expect_same_image("transaction boundary");
            } else {
                ASSERT_EQ(dut.liveEntries(), ref.liveEntries());
                ASSERT_EQ(dut.inTransaction() ? dut.liveEntries() : 0u,
                          ref.liveTransactionalEntries());
            }
            ASSERT_EQ(dut.indexCheck(), "") << "after op " << op;
            if (HasFatalFailure())
                return;
        }

        // Directed: commit -> no store -> TBEGIN on clean
        // transactional blocks, the sequence whose second write-back
        // the dirty flag skips.
        if (in_tx) {
            dut.commitTransaction(dut_mem);
            ref.commitTransaction(ref_mem);
            expect_same_image("final commit");
        }
        dut.beginTransaction(dut_mem);
        ref.closeAllEntries(ref_mem);
        expect_same_image("directed TBEGIN");
        for (unsigned i = 0; i < 6; ++i) {
            const Addr addr = pickAddr(rng, kLines);
            std::uint8_t bytes[8];
            for (auto &b : bytes)
                b = std::uint8_t(rng.next());
            const bool ntstg = i == 3;
            const bool ok = dut.store(addr, bytes, 8, ntstg, dut_mem);
            ASSERT_EQ(ok, ref.store(addr, bytes, 8, true, ntstg,
                                    ref_mem));
            if (!ok) {
                dut.abortTransaction(dut_mem);
                ref.abortTransaction(ref_mem);
                break;
            }
        }
        dut.commitTransaction(dut_mem);
        ref.commitTransaction(ref_mem);
        expect_same_image("directed commit");
        dut.beginTransaction(dut_mem);
        ref.closeAllEntries(ref_mem);
        expect_same_image("directed commit-then-TBEGIN");
        ASSERT_EQ(dut.liveEntries(), 0u);
        ASSERT_EQ(dut.indexCheck(), "");
        dut.commitTransaction(dut_mem);
        ref.commitTransaction(ref_mem);
        if (HasFatalFailure())
            return;

        // Flush both and compare the full memory images.
        dut.drainAll(dut_mem);
        ref.drainAll(ref_mem);
        for (Addr a = 0; a < Addr(kLines) * lineSizeBytes; ++a)
            ASSERT_EQ(dut_mem.read(a, 1), ref_mem.read(a, 1))
                << "memory byte " << a << " diverged (seed "
                << seed << ")";
    }
}

/** True-LRU reference: per-set vector ordered by insertion slot. */
class RefCacheArray
{
  public:
    RefCacheArray(std::uint64_t rows, unsigned assoc)
        : rows_(rows), assoc_(assoc), effAssoc_(assoc),
          sets_(rows)
    {
    }

    struct Way
    {
        bool valid = false;
        Addr line = 0;
        std::uint8_t flags = 0;
        std::uint64_t lastUse = 0;
    };

    std::uint64_t row(Addr line) const
    {
        return (line >> lineSizeLog2) % rows_;
    }

    Way *
    find(Addr line)
    {
        for (auto &w : sets_[row(line)])
            if (w.valid && w.line == line)
                return &w;
        return nullptr;
    }

    bool
    touch(Addr line)
    {
        Way *w = find(line);
        if (!w)
            return false;
        w->lastUse = ++useTick_;
        return true;
    }

    CacheArray::Victim
    insert(Addr line, std::uint8_t flags)
    {
        auto &set = sets_[row(line)];
        if (set.size() < assoc_)
            set.resize(assoc_);
        unsigned valid_ways = 0;
        for (const auto &w : set)
            valid_ways += w.valid ? 1 : 0;
        Way *slot = nullptr;
        if (valid_ways < effAssoc_) {
            for (auto &w : set) {
                if (!w.valid) {
                    slot = &w;
                    break;
                }
            }
        }
        CacheArray::Victim victim;
        if (!slot) {
            for (auto &w : set) {
                if (!w.valid)
                    continue;
                if (!slot || w.lastUse < slot->lastUse)
                    slot = &w;
            }
            victim.valid = true;
            victim.line = slot->line;
            victim.flags = slot->flags;
        }
        slot->valid = true;
        slot->line = line;
        slot->flags = flags;
        slot->lastUse = ++useTick_;
        return victim;
    }

    bool
    invalidate(Addr line)
    {
        Way *w = find(line);
        if (!w)
            return false;
        w->valid = false;
        w->flags = 0;
        return true;
    }

    void
    clearFlagsAll(std::uint8_t bits)
    {
        for (auto &set : sets_)
            for (auto &w : set)
                if (w.valid)
                    w.flags &= std::uint8_t(~bits);
    }

    void
    replayTouches(std::uint64_t hits, const Addr *tail,
                  std::size_t tail_len)
    {
        const std::uint64_t first = useTick_ + hits - tail_len;
        for (std::size_t j = 0; j < tail_len; ++j)
            if (Way *w = find(tail[j]))
                w->lastUse = first + j + 1;
        useTick_ += hits;
    }

    void setEffectiveAssoc(unsigned ways)
    {
        effAssoc_ = (ways == 0 || ways >= assoc_) ? assoc_ : ways;
    }

    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        for (const auto &set : sets_)
            for (const auto &w : set)
                n += w.valid ? 1 : 0;
        return n;
    }

  private:
    std::uint64_t rows_;
    unsigned assoc_;
    unsigned effAssoc_;
    std::vector<std::vector<Way>> sets_;
    std::uint64_t useTick_ = 0;
};

/** One CacheArray geometry for the true-LRU property check. */
struct LruCase
{
    std::uint64_t rows;
    unsigned ops;
    /**
     * Half the lines come from any row, not just the 8 hot rows x 8
     * tags: rows far outnumber operations, so rows keep being
     * allocated among evictions to the end.
     */
    bool sparse;
};

void
checkAgainstTrueLru(const LruCase &g, std::uint64_t seed)
{
    constexpr unsigned kAssoc = 4;
    Rng rng(seed);
    CacheArray dut(
        CacheGeometry{g.rows * kAssoc * lineSizeBytes, kAssoc},
        "dut");
    RefCacheArray ref(g.rows, kAssoc);
    std::set<Addr> seen;
    std::set<std::uint64_t> inserted_rows;
    // The slot of the last insert, kept (and going stale) as a
    // caller of setFlagsAt keeps an access's L1 slot.
    std::size_t kept = CacheArray::npos;

    const auto pickLine = [&] {
        Addr line;
        if (g.sparse && rng.nextBool(0.5)) {
            line = Addr(rng.nextBounded(g.rows) +
                        g.rows * rng.nextBounded(2)) *
                   lineSizeBytes;
        } else {
            const std::uint64_t k = rng.nextBounded(64);
            line = Addr(k % 8 + g.rows * (k / 8)) * lineSizeBytes;
        }
        seen.insert(line);
        return line;
    };

    for (unsigned op = 0; op < g.ops; ++op) {
        const unsigned kind = unsigned(rng.nextBounded(100));
        const Addr line = pickLine();
        if (kind < 35) {
            if (dut.contains(line))
                continue; // insert requires absence
            const std::uint8_t flags =
                std::uint8_t(rng.nextBounded(4));
            // Exercise both the classic and the fused path; the
            // probe must agree with insertWouldEvict.
            CacheArray::Victim dv;
            if (rng.nextBool(0.5)) {
                const auto p = dut.probeForInsert(line);
                ASSERT_FALSE(p.hit);
                ASSERT_EQ(p.wouldEvict,
                          dut.insertWouldEvict(line));
                dv = dut.insertAt(p, line, flags);
            } else {
                dv = dut.insert(line, flags);
            }
            kept = dv.slot;
            const auto rv = ref.insert(line, flags);
            ASSERT_EQ(dv.valid, rv.valid);
            if (dv.valid) {
                ASSERT_EQ(dv.line, rv.line);
                ASSERT_EQ(dv.flags, rv.flags);
            }
            inserted_rows.insert(ref.row(line));
        } else if (kind < 58) {
            // Fused find+touch against the reference's touch.
            const bool hit = rng.nextBool(0.5)
                                 ? dut.findAndTouch(line)
                                 : dut.touch(line);
            ASSERT_EQ(hit, ref.touch(line));
        } else if (kind < 70) {
            const auto *w = ref.find(line);
            ASSERT_EQ(dut.contains(line), w != nullptr);
            ASSERT_EQ(dut.flagsOf(line),
                      w ? w->flags : std::uint8_t(0));
        } else if (kind < 80) {
            if (dut.contains(line)) {
                const std::uint8_t bits =
                    std::uint8_t(1 + rng.nextBounded(3));
                // setFlagsAt marks the line whatever slot it is
                // given: its own, the kept one, any pool slot, or
                // none.
                switch (rng.nextBounded(5)) {
                  case 0: dut.setFlags(line, bits); break;
                  case 1:
                    dut.setFlagsAt(dut.probeForInsert(line).idx, line,
                                   bits);
                    break;
                  case 2: dut.setFlagsAt(kept, line, bits); break;
                  case 3:
                    dut.setFlagsAt(
                        std::size_t(rng.nextBounded(
                            dut.rowsAllocated() * kAssoc + 1)),
                        line, bits);
                    break;
                  default:
                    dut.setFlagsAt(CacheArray::npos, line, bits);
                }
                ref.find(line)->flags |= bits;
            } else {
                const std::uint8_t bits =
                    std::uint8_t(1 + rng.nextBounded(3));
                dut.clearFlags(line, bits);
                ASSERT_EQ(ref.find(line), nullptr);
            }
        } else if (kind < 88) {
            ASSERT_EQ(dut.invalidate(line),
                      ref.invalidate(line));
        } else if (kind < 93) {
            const std::uint8_t bits =
                std::uint8_t(1 + rng.nextBounded(3));
            dut.clearFlagsAll(bits);
            ref.clearFlagsAll(bits);
        } else if (kind < 96) {
            // XI-style capacity squeeze and release.
            const unsigned ways =
                unsigned(1 + rng.nextBounded(kAssoc));
            dut.setEffectiveAssoc(ways);
            ref.setEffectiveAssoc(ways);
        } else if (kind < 98) {
            // Spin-replayed L1 hits: the tick advances by `hits`
            // and the tail lines (present or not) take the last
            // ticks, in order.
            std::array<Addr, 4> tail{};
            const std::size_t len =
                std::size_t(rng.nextBounded(tail.size() + 1));
            tail[0] = line;
            for (std::size_t j = 1; j < len; ++j)
                tail[j] = pickLine();
            const std::uint64_t hits = len + rng.nextBounded(4);
            dut.replayTouches(hits, tail.data(), len);
            ref.replayTouches(hits, tail.data(), len);
        } else {
            ASSERT_EQ(dut.validCount(), ref.validCount());
        }
        ASSERT_EQ(dut.rowsAllocated(), inserted_rows.size());
        ASSERT_EQ(dut.indexCheck(), "") << "after op " << op;
    }

    // Final sweep: every line the run drew agrees.
    for (const Addr line : seen) {
        const auto *w = ref.find(line);
        ASSERT_EQ(dut.contains(line), w != nullptr);
        ASSERT_EQ(dut.flagsOf(line),
                  w ? w->flags : std::uint8_t(0));
    }
}

TEST(HotPathProperty, CacheArrayMatchesTrueLruReference)
{
    for (const LruCase g : {LruCase{8, 6000, false},
                            LruCase{16384, 2000, true}}) {
        for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
            SCOPED_TRACE(testing::Message()
                         << "rows " << g.rows << ", seed " << seed);
            checkAgainstTrueLru(g, seed);
            if (HasFatalFailure())
                return;
        }
    }
}

} // namespace
