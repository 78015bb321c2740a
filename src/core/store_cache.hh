/**
 * @file
 * The gathering store cache (paper §III.D).
 *
 * A circular queue of 64 entries, each holding 128 bytes with
 * byte-precise valid bits, sitting between the store-through L1/L2
 * and the L3. It gathers neighbouring stores to reduce L3 store
 * bandwidth and doubles as the transactional store buffer. Each
 * store is written here when it completes, inside its own step, so
 * zTX keeps no separate store queue (DESIGN.md §1).
 *
 * "In a transaction" is a mode of the whole cache, not of each
 * entry:
 *
 *  - a new outermost TBEGIN (beginTransaction()) drains every entry
 *    to memory inside the TBEGIN step and enters the mode, so while
 *    it lasts the cache holds only the transaction's stores and
 *    every live entry is transactional;
 *  - in the mode a full cache is the store-footprint overflow that
 *    aborts the transaction; outside it a full cache evicts its
 *    oldest entry;
 *  - each doubleword written by NTSTG is marked; on abort those
 *    doublewords survive and are committed anyway;
 *  - exclusive/demote XIs look up the line's entries (the caller
 *    rejects the XI when a transaction's entry matches) and drain
 *    them when no transaction holds them.
 *
 * A block has at most one live entry, which an open-addressed map
 * from 128-byte block address names directly: loads, stores and XI
 * line queries each probe the map instead of scanning the entries
 * (DESIGN.md §5b "per-access hot path").
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
     * @p bytes). Gathers into the block's live entry, else
     * allocates; outside a transaction a full cache first evicts its
     * oldest entry to @p memory.
     *
     * @return false on store-footprint overflow: allocation was
     *         required inside a transaction with the cache full. The
     *         caller must abort the transaction.
     */
    bool store(Addr addr, const std::uint8_t *bytes, unsigned len,
               bool ntstg, mem::MainMemory &memory);

    /**
     * Overlay this CPU's buffered store data onto @p buf, a
     * big-endian byte image of [addr, addr+len).
     */
    void overlay(Addr addr, unsigned len, std::uint8_t *buf) const;

    /**
     * New outermost TBEGIN: drain every entry to @p memory and enter
     * transaction mode. Panics inside a transaction.
     */
    void beginTransaction(mem::MainMemory &memory);

    /**
     * Transaction committed: write all buffered bytes to @p memory
     * and leave transaction mode; the entries stay live (and clean)
     * so post-transaction stores keep gathering. No-op outside a
     * transaction.
     */
    void commitTransaction(mem::MainMemory &memory);

    /**
     * Transaction aborted: discard every entry, except that
     * NTSTG-marked doublewords are committed to @p memory, and leave
     * transaction mode. No-op outside a transaction.
     */
    void abortTransaction(mem::MainMemory &memory);

    /** True between beginTransaction() and its commit or abort. */
    bool inTransaction() const { return inTx_; }

    /** True if any live entry intersects @p line. */
    bool hasAnyLine(Addr line) const;

    /**
     * Drain (write back and free) the entries touching @p line.
     * No-op inside a transaction.
     */
    void drainLine(Addr line, mem::MainMemory &memory);

    /** Drain every entry. No-op inside a transaction. */
    void drainAll(mem::MainMemory &memory);

    /** Number of live entries. */
    unsigned liveEntries() const { return live_; }

    /** Capacity. */
    unsigned capacity() const { return unsigned(entries_.size()); }

    /** Stats group (gathers/allocations/overflows/NTSTG overlap). */
    StatGroup &stats() { return stats_; }

    /**
     * Verify the block map and occupancy bitmap against a walk of
     * the entries: each live entry is its block's mapped entry.
     * @return Empty string when consistent, else a description of
     *         the first violation (chaos-oracle hook).
     */
    std::string indexCheck() const;

  private:
    struct Entry
    {
        /**
         * Holds bytes memory may not: set by every store into the
         * entry, cleared by writeBack(). Clean means memory equals
         * data under the valid mask.
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

    /** Empty-map-slot / no-entry marker. */
    static constexpr std::uint16_t npos = 0xFFFF;

    /** One open-addressed map slot: block -> its live entry. */
    struct MapSlot
    {
        Addr block = 0;
        std::uint16_t entry = npos;
    };

    /** A free entry's index, evicting if full; npos on overflow. */
    unsigned allocate(mem::MainMemory &memory);
    /** Write entry @p e to @p memory if dirty; leaves it clean. */
    static void writeBack(Entry &e, mem::MainMemory &memory);
    /** Write back and free entry @p idx. */
    void drainEntry(unsigned idx, mem::MainMemory &memory);
    void storeBlockPiece(Entry &entry, Addr addr,
                         const std::uint8_t *bytes, unsigned len,
                         bool ntstg);

    /** @name Block map maintenance @{ */
    std::size_t mapHome(Addr block) const;
    /** Map slot of @p block; noSlot when it has no live entry. */
    std::size_t mapFind(Addr block) const;
    /** Backward-shift deletion of map slot @p i. */
    void mapErase(std::size_t i);
    /** Map entry @p idx (just made live) under its block. */
    void indexInsert(unsigned idx);
    /** Unmap entry @p idx (about to be freed). */
    void indexRemove(unsigned idx);
    /** @} */

    std::vector<Entry> entries_;
    std::uint64_t seq_ = 0;
    bool inTx_ = false;

    /** @name Block map and occupancy (see file comment) @{ */
    std::vector<MapSlot> map_;
    std::size_t mapMask_ = 0;
    /** Occupancy bitmap, bit i = entries_[i] is live. */
    std::vector<std::uint64_t> liveMask_;
    unsigned live_ = 0;
    /** @} */

    StatGroup stats_;
    CounterHandle gathers_{stats_, "gathers"};
    CounterHandle allocations_{stats_, "allocations"};
};

} // namespace ztx::core

#endif // ZTX_CORE_STORE_CACHE_HH
