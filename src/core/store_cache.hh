/**
 * @file
 * The gathering store cache (paper §III.D).
 *
 * A circular queue of 64 entries, each holding 128 bytes with
 * byte-precise valid bits, sitting between the store-through L1/L2
 * and the L3. It gathers neighbouring stores to reduce L3 store
 * bandwidth and doubles as the transactional store buffer:
 *
 *  - at a new outermost TBEGIN all existing entries are *closed*
 *    (no further gathering) and drained;
 *  - transactional stores allocate/gather into transactional
 *    entries whose writeback is blocked until the transaction ends;
 *  - allocation failure with the cache full of current-transaction
 *    entries is the store-footprint overflow that aborts the TX;
 *  - each doubleword written by NTSTG is marked; on abort those
 *    doublewords survive and are committed anyway;
 *  - exclusive/demote XIs compare against active entries (the
 *    caller rejects the XI when a transactional entry matches).
 *
 * Functionally, zTX commits store-cache data to MainMemory when
 * entries drain (non-transactional) or at transaction end
 * (transactional); see DESIGN.md on the functional-vs-timing split.
 *
 * The per-access queries (overlay on every load, findOpen on every
 * store, hasTransactionalLine/hasAnyLine on every incoming XI) run
 * against a block index instead of scanning the entries: a small
 * open-addressed map from 128-byte block address to a chain of live
 * entries (kept in entry-array order, so lookups return exactly
 * what the historical scan returned), live/transactional occupancy
 * bitmaps, and a line-granular occupancy summary (per-bucket
 * counts + a 64-bit signature over hashed line addresses) that
 * rejects non-intersecting line queries with a single AND. See
 * DESIGN.md §5b "per-access hot path".
 *
 * Write-back is once per store burst: an entry carries a dirty flag
 * (set by a store, cleared by write-back), so the entry a TEND
 * committed reaches memory again at the next TBEGIN only if a
 * post-transaction store re-dirtied it. A block goes to memory in
 * one masked line write under its byte-valid mask.
 */

#ifndef ZTX_CORE_STORE_CACHE_HH
#define ZTX_CORE_STORE_CACHE_HH

#include <array>
#include <bitset>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace ztx::mem {
class MainMemory;
} // namespace ztx::mem

namespace ztx::core {

/** Bytes per store-cache entry (half a 256-byte cache line). */
inline constexpr std::uint64_t storeCacheBlockBytes = 128;

/** Base address of the 128-byte block containing @p addr. */
constexpr Addr
storeCacheBlockAlign(Addr addr)
{
    return addr & ~(storeCacheBlockBytes - 1);
}

/** The gathering store cache of one CPU. */
class GatheringStoreCache
{
  public:
    /**
     * @param num_entries Capacity (zEC12: 64).
     * @param name Stats prefix.
     */
    explicit GatheringStoreCache(unsigned num_entries = 64,
                                 const std::string &name = "stc");

    GatheringStoreCache(const GatheringStoreCache &) = delete;
    GatheringStoreCache &operator=(const GatheringStoreCache &) = delete;

    /**
     * Record a store of @p len bytes at @p addr (big-endian image in
     * @p bytes). Gathers into an open entry of the same block and
     * same transactional class, else allocates; the oldest drained
     * non-transactional entry is evicted to @p memory when full.
     *
     * @return false on store-footprint overflow: allocation was
     *         required but every entry holds current-transaction
     *         data. The caller must abort the transaction.
     */
    bool store(Addr addr, const std::uint8_t *bytes, unsigned len,
               bool transactional, bool ntstg,
               mem::MainMemory &memory);

    /**
     * Overlay this CPU's buffered store data onto @p buf, a
     * big-endian byte image of [addr, addr+len). Older entries are
     * applied first so newer stores win.
     */
    void overlay(Addr addr, unsigned len, std::uint8_t *buf) const;

    /**
     * Close every entry to further gathering and drain the
     * non-transactional ones (new outermost TBEGIN).
     */
    void closeAllEntries(mem::MainMemory &memory);

    /**
     * Transaction committed: write all transactional bytes to
     * @p memory and turn the entries into normal (still-open)
     * entries so post-transaction stores keep gathering.
     */
    void commitTransaction(mem::MainMemory &memory);

    /**
     * Transaction aborted: discard transactional entries, except
     * that NTSTG-marked doublewords are committed to @p memory.
     */
    void abortTransaction(mem::MainMemory &memory);

    /** True if any transactional entry intersects @p line. */
    bool hasTransactionalLine(Addr line) const;

    /** True if any live entry intersects @p line. */
    bool hasAnyLine(Addr line) const;

    /** Drain (write back and free) non-TX entries touching @p line. */
    void drainLine(Addr line, mem::MainMemory &memory);

    /** Drain every non-transactional entry. */
    void drainAll(mem::MainMemory &memory);

    /** Number of live entries. */
    unsigned liveEntries() const { return live_; }

    /** Number of live transactional entries. */
    unsigned liveTransactionalEntries() const { return liveTx_; }

    /** Capacity. */
    unsigned capacity() const { return unsigned(entries_.size()); }

    /** Stats group (gathers/allocations/overflows/NTSTG overlap). */
    StatGroup &stats() { return stats_; }

    /**
     * Verify the block index, occupancy bitmaps, and line summary
     * against a ground-truth walk of the entries.
     * @return Empty string when consistent, else a description of
     *         the first violation (chaos-oracle hook).
     */
    std::string indexCheck() const;

  private:
    struct Entry
    {
        bool live = false;
        bool transactional = false;
        bool closed = false;
        /**
         * Holds bytes memory may not: set by every store into the
         * entry, cleared by writeBack(). Clean means memory equals
         * data under the valid mask (see writeBack()).
         */
        bool dirty = false;
        Addr block = 0;
        std::uint64_t seq = 0;
        std::array<std::uint8_t, storeCacheBlockBytes> data{};
        /** Byte-valid mask: bit b % 64 of word b / 64 = data[b]. */
        std::array<std::uint64_t, storeCacheBlockBytes / 64> valid{};
        /** Per-doubleword NTSTG mark (16 doublewords per block). */
        std::bitset<storeCacheBlockBytes / 8> ntstg;

        bool
        validByte(std::uint64_t b) const
        {
            return (valid[b / 64] >> (b % 64)) & 1;
        }
    };

    /** Chain terminator / empty-map-slot marker. */
    static constexpr std::uint16_t npos = 0xFFFF;

    /** One open-addressed map slot: block -> live-entry chain. */
    struct MapSlot
    {
        Addr block = 0;
        std::uint16_t head = npos;
    };

    Entry *findOpen(Addr block, bool transactional);
    Entry *allocate(mem::MainMemory &memory);
    /** Write entry @p idx to @p memory if dirty; leaves it clean. */
    void writeBack(unsigned idx, mem::MainMemory &memory);
    /**
     * Write entry @p idx's bytes selected by @p mask to @p memory
     * and mark the other live entries of its block dirty.
     */
    void writeBytes(unsigned idx,
                    const std::array<std::uint64_t,
                                     storeCacheBlockBytes / 64> &mask,
                    mem::MainMemory &memory);
    void storeBlockPiece(Entry &entry, Addr addr,
                         const std::uint8_t *bytes, unsigned len,
                         bool ntstg);

    /** @name Block index maintenance @{ */
    std::size_t mapHome(Addr block) const;
    /** Map slot holding @p block's chain; npos64 when absent. */
    std::size_t mapFind(Addr block) const;
    /** Backward-shift deletion of map slot @p i. */
    void mapErase(std::size_t i);
    /** Link entry @p idx (just made live) into the index. */
    void indexInsert(unsigned idx);
    /** Unlink entry @p idx (about to be freed) from the index. */
    void indexRemove(unsigned idx);
    /** Entry @p idx changed transactional class (commit). */
    void indexSetNonTx(unsigned idx);
    /** @} */

    /** Line-summary bucket of @p addr (any address on the line). */
    static unsigned
    lineBucket(Addr addr)
    {
        return unsigned(addr >> lineSizeLog2) & 63u;
    }

    std::vector<Entry> entries_;
    std::uint64_t seq_ = 0;

    /** @name Block index (see file comment) @{ */
    std::vector<MapSlot> map_;
    std::size_t mapMask_ = 0;
    /** Per-entry chain link, entry-array order within a chain. */
    std::vector<std::uint16_t> next_;
    /** Occupancy bitmaps, bit i = entries_[i]. */
    std::vector<std::uint64_t> liveMask_;
    std::vector<std::uint64_t> txMask_;
    unsigned live_ = 0;
    unsigned liveTx_ = 0;
    /** Line-granular summary: live entries per hashed line bucket. */
    std::array<std::uint16_t, 64> lineBucketLive_{};
    std::array<std::uint16_t, 64> lineBucketTx_{};
    /** Signature: bit b set iff lineBucket*_[b] > 0. */
    std::uint64_t lineSigLive_ = 0;
    std::uint64_t lineSigTx_ = 0;
    /** @} */

    StatGroup stats_;
    CounterHandle gathers_{stats_, "gathers"};
    CounterHandle allocations_{stats_, "allocations"};
};

} // namespace ztx::core

#endif // ZTX_CORE_STORE_CACHE_HH
