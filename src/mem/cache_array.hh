/**
 * @file
 * Generic set-associative cache tag array with true-LRU replacement.
 *
 * The array tracks presence and per-line flag bits only; data lives in
 * MainMemory / the store cache (see DESIGN.md on the functional-vs-
 * timing split). The L1 instance additionally carries the tx-read and
 * tx-dirty bits the paper adds to the L1 directory latches.
 *
 * Layout and probing are built for the per-access hot path (DESIGN.md
 * §5b "per-access hot path"). Each row (congruence class) has one
 * zero-initialised 8-byte head holding its valid-way bitmask and
 * where its ways sit in the pools; a probe of a row never touched
 * reads only that word. Tags, recency ticks and flags live in three
 * per-array pools (SoA), so a probe walks a compact tag vector
 * instead of padded structs. A row's assoc() ways are appended to
 * the pools on its first insert and stay there when the row empties,
 * so metadata grows with the rows a run touches, not with the
 * cache's capacity (a full-size L4 has 65,536 rows; its heads are
 * 512 KiB). probeForInsert() resolves presence, the free way, and
 * the LRU victim in one pass, and touchAt()/insertAt() complete the
 * access against the returned slot without re-probing. The legacy
 * find/touch/insert entry points remain and are thin wrappers over
 * the fused path, so replacement order and victim choice are
 * bit-identical to the historical scan (way order breaks lastUse
 * comparisons, and ticks are unique by construction).
 */

#ifndef ZTX_MEM_CACHE_ARRAY_HH
#define ZTX_MEM_CACHE_ARRAY_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/geometry.hh"

namespace ztx::mem {

/** Per-line flag bits stored in cache entries. */
namespace line_flag {

/** Line was read transactionally (paper's tx-read bit). */
inline constexpr std::uint8_t txRead = 0x1;

/** Line was stored to transactionally (paper's tx-dirty bit). */
inline constexpr std::uint8_t txDirty = 0x2;

} // namespace line_flag

/** Set-associative tag array; addresses are line-aligned. */
class CacheArray
{
  public:
    /** One way of one congruence class (forEachValid view). */
    struct Entry
    {
        Addr line = 0;
        bool valid = false;
        std::uint8_t flags = 0;
        std::uint64_t lastUse = 0;
    };

    /** Description of a line displaced by insert(). */
    struct Victim
    {
        bool valid = false;
        Addr line = 0;
        std::uint8_t flags = 0;
        /** Pool slot the inserted line now occupies. */
        std::size_t slot = 0;
    };

    /** No slot: an absent line, or Probe::slot of a row without any. */
    static constexpr std::size_t npos = ~std::size_t(0);

    /**
     * Result of one fused probe (probeForInsert): presence, the
     * slot an insert would fill, and whether that insert would
     * displace a victim. Valid until the array is next mutated.
     */
    struct Probe
    {
        /** Pool slot (row base + way) of the hit. */
        std::size_t idx = 0;
        bool hit = false;
        /**
         * Pool slot an insertAt() would fill (miss only); npos when
         * the row has no pool slots yet, in which case insertAt()
         * allocates them and fills way 0.
         */
        std::size_t slot = 0;
        /** insertAt() would displace the line in `slot`. */
        bool wouldEvict = false;
        /** Row (congruence class) of the probed line. */
        std::uint64_t set = 0;
    };

    /**
     * @param geometry Size and associativity; rows are derived.
     * @param name For diagnostics.
     */
    CacheArray(const CacheGeometry &geometry, std::string name);

    /** True if @p line is present (no LRU update). */
    bool contains(Addr line) const;

    /** Flags of @p line; 0 if absent. */
    std::uint8_t flagsOf(Addr line) const;

    /** OR @p bits into the flags of @p line; line must be present. */
    void setFlags(Addr line, std::uint8_t bits);

    /**
     * setFlags() through a slot the caller kept (an L1 hit's or
     * fill's Probe::idx / Victim::slot): OR @p bits into slot @p idx
     * when it still holds @p line, else probe for it (the slot went
     * stale, or @p idx is npos). Returns false, setting nothing,
     * when @p line is absent.
     */
    bool setFlagsAt(std::size_t idx, Addr line, std::uint8_t bits);

    /** Clear @p bits from the flags of @p line if present. */
    void clearFlags(Addr line, std::uint8_t bits);

    /**
     * Clear @p bits from every valid entry's flags. Short-circuits
     * when no valid entry carries any flag bits (flaggedCount()),
     * so the per-TBEGIN tx-mark wipe is O(1) outside transactions.
     */
    void clearFlagsAll(std::uint8_t bits);

    /** @name Fused probes (hot path) @{ */
    /**
     * Presence + LRU bump in one probe: mark @p line most recently
     * used. @return True if present.
     */
    bool findAndTouch(Addr line);

    /**
     * One pass over @p line's congruence class resolving presence,
     * the slot a subsequent insertAt() would fill, and whether that
     * insert would displace a victim (the insertWouldEvict()
     * answer). Never mutates the array.
     */
    Probe probeForInsert(Addr line) const;

    /** Bump the LRU tick of the entry a Probe hit. */
    void
    touchAt(const Probe &p)
    {
        lastUse_[p.idx] = ++useTick_;
    }

    /**
     * Complete the insert a probeForInsert() miss prepared, without
     * re-probing. @p p must come from probeForInsert(@p line) on
     * the current array state with p.hit == false.
     */
    Victim insertAt(const Probe &p, Addr line,
                    std::uint8_t flags = 0);
    /** @} */

    /**
     * Account @p hits L1 hits that were replayed rather than probed
     * (sim::Machine's spin replay): the LRU tick advances by @p hits,
     * and @p tail, the lines of the last @p tail_len of those hits in
     * order, get the ticks those hits would have given them. Absent
     * lines are skipped. @p tail_len must not exceed @p hits.
     */
    void replayTouches(std::uint64_t hits, const Addr *tail,
                       std::size_t tail_len);

    /** Mark @p line most recently used; true if present. */
    bool touch(Addr line) { return findAndTouch(line); }

    /**
     * Insert @p line (must not be present), evicting the LRU way of
     * its congruence class when full.
     * @return The displaced line, if any.
     */
    Victim insert(Addr line, std::uint8_t flags = 0);

    /**
     * True if insert(@p line) would displace a victim right now:
     * the congruence class already holds as many valid lines as
     * its effective ways. O(1) on the row head's valid mask.
     */
    bool insertWouldEvict(Addr line) const;

    /** Remove @p line; true if it was present. */
    bool invalidate(Addr line);

    /** Congruence class (row) index of @p line. */
    std::uint64_t
    row(Addr line) const
    {
        return (line >> lineSizeLog2) % rows_;
    }

    /** Number of congruence classes. */
    std::uint64_t rows() const { return rows_; }

    /** Ways per congruence class. */
    unsigned assoc() const { return assoc_; }

    /**
     * Limit replacement to @p ways effective ways per congruence
     * class (fault injection: capacity squeeze). While a row holds
     * at least this many valid lines, insert() evicts the LRU line
     * even when unused ways remain, so fills behave as if the array
     * were @p ways -way associative. 0 (or >= assoc()) restores the
     * configured geometry. Resident lines are never flushed eagerly.
     */
    void setEffectiveAssoc(unsigned ways);

    /** Count of valid entries (for tests/stats). */
    std::size_t validCount() const;

    /**
     * Rows whose ways have been appended to the pools (for
     * tests/stats): the rows ever inserted into.
     */
    std::size_t rowsAllocated() const { return tags_.size() / assoc_; }

    /** Valid entries currently carrying any flag bits. */
    std::size_t flaggedCount() const { return flagged_; }

    /** Invoke @p fn(const Entry &) for every valid entry. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const RowHead &head : heads_) {
            std::uint32_t ways = head.valid;
            while (ways != 0) {
                const unsigned w = ctz32(ways);
                ways &= ways - 1;
                const std::size_t i = base(head) + w;
                Entry entry;
                entry.line = tags_[i];
                entry.valid = true;
                entry.flags = flags_[i];
                entry.lastUse = lastUse_[i];
                fn(entry);
            }
        }
    }

    /** Array name (diagnostics). */
    const std::string &name() const { return name_; }

    /**
     * Verify the per-row metadata (valid masks, pool slots owned by
     * exactly one row each, tag-to-set mapping, tag uniqueness
     * within a set, flagged-entry count) against a ground-truth
     * walk. @return Empty string when consistent, else
     * a description of the first violation (chaos-oracle hook).
     */
    std::string indexCheck() const;

  private:
    /** Per-row head; all-zero for a row never inserted into. */
    struct RowHead
    {
        /** Bit w set = way w of the row is valid (assoc <= 32). */
        std::uint32_t valid = 0;
        /** One past the row's last pool slot; 0 = no pool slots. */
        std::uint32_t end = 0;
    };

    static unsigned ctz32(std::uint32_t v);

    /** Pool slot of way 0 of an allocated row. */
    std::size_t
    base(const RowHead &head) const
    {
        return std::size_t(head.end - assoc_);
    }

    /** Entry slot of @p line, or npos when absent. */
    std::size_t findIdx(Addr line) const;

    /** OR @p bits into the flags of valid slot @p i. */
    void orFlags(std::size_t i, std::uint8_t bits);

    std::uint64_t rows_;
    unsigned assoc_;
    unsigned effAssoc_;
    std::string name_;

    /** One head per row. */
    std::vector<RowHead> heads_;

    /**
     * @name Pools (slot = row base + way), assoc() slots per
     * allocated row, appended in first-insert order @{
     */
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint8_t> flags_;
    /** @} */

    /** Valid entries with flags != 0 (clearFlagsAll short-circuit). */
    std::size_t flagged_ = 0;

    std::uint64_t useTick_ = 0;
};

} // namespace ztx::mem

#endif // ZTX_MEM_CACHE_ARRAY_HH
