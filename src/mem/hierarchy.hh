/**
 * @file
 * The zEC12-like cache hierarchy and SMP coherence engine.
 *
 * Owns the per-CPU L1/L2 tag arrays, per-chip L3, per-MCM L4, the
 * global coherence directory, the transactional bit planes the paper
 * adds to the L1 directory (tx-read / tx-dirty latches and the 64-row
 * LRU-extension vector), and the XI protocol with reject support.
 *
 * CPUs interact through fetch() and the tx-mark methods; incoming XIs
 * are delivered synchronously to the registered CacheClient of the
 * target CPU, which decides Accept/Reject and performs transaction
 * aborts as side effects. Latencies are returned to the caller as
 * cycle costs per the LatencyModel (see DESIGN.md).
 */

#ifndef ZTX_MEM_HIERARCHY_HH
#define ZTX_MEM_HIERARCHY_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache_array.hh"
#include "mem/directory.hh"
#include "mem/geometry.hh"
#include "mem/latency_model.hh"
#include "mem/topology.hh"
#include "mem/xi.hh"

namespace ztx::mem {

/** Outcome of a fetch request. */
struct AccessResult
{
    /** Total cycle cost of the access (or of the rejected attempt). */
    Cycles latency = 0;

    /** True if a Demote/Exclusive XI was stiff-armed; retry later. */
    bool rejected = false;

    /** CPU that rejected the XI (valid when rejected). */
    CpuId rejecter = invalidCpu;

    /** Where the data came from (valid when !rejected). */
    DataSource source = DataSource::L1;

    /**
     * The requester's L1 pool slot now holding the line (valid when
     * !rejected): the tx marks of this access go through it
     * (Hierarchy::markTxRead/markTxDirty).
     */
    std::size_t l1Slot = CacheArray::npos;
};

/**
 * Four-level inclusive cache hierarchy with XI coherence.
 *
 * Caches exist only where a CPU can reach them: L1/L2 for the first
 * `cpus` topology slots, an L3 for each chip and an L4 for each MCM
 * that holds one of those CPUs. A line is installed only in the
 * requester's own L1-L4, so a cache that was not built would never
 * hold one (DESIGN.md §2, "Memory substrate: which caches exist").
 */
class Hierarchy
{
  public:
    /**
     * @param cpus CPUs whose caches are built: slots 0..cpus-1 of
     *        @p topo. 0 builds every slot.
     */
    Hierarchy(const Topology &topo, const LatencyModel &lat,
              const HierarchyGeometry &geo = HierarchyGeometry{},
              unsigned cpus = 0);

    Hierarchy(const Hierarchy &) = delete;
    Hierarchy &operator=(const Hierarchy &) = delete;

    /** CPUs whose L1/L2 were built (slots 0..builtCpus()-1). */
    unsigned builtCpus() const { return unsigned(l1_.size()); }

    /** Register the XI client (the CPU's LSU model) for @p cpu. */
    void setClient(CpuId cpu, CacheClient *client);

    /**
     * Bring @p line into @p cpu's L1 in shared (read) or exclusive
     * (write) state, driving the full coherence protocol. A read
     * that hits the L1 is answered from the L1 alone: L1 within L2
     * within the directory's holders (indexCheck()) means the
     * directory would find the line held.
     *
     * @param cpu Requesting CPU.
     * @param line Line-aligned address.
     * @param exclusive True for store access (needs ownership).
     * @return latency/rejection outcome; on rejection no state moved.
     */
    AccessResult fetch(CpuId cpu, Addr line, bool exclusive);

    /**
     * Account @p hits read fetches by @p cpu that hit its L1 but were
     * replayed rather than made (sim::Machine's spin replay): the
     * fetch and L1-hit counters and the L1's LRU state end as if each
     * had gone through fetch(). @p tail holds the lines of the last
     * @p tail_len of those fetches, in order (CacheArray::
     * replayTouches).
     */
    void replayL1Hits(CpuId cpu, std::uint64_t hits, const Addr *tail,
                      std::size_t tail_len);

    /**
     * @name Transactional bit plane (paper §III.C)
     * @{
     */
    /**
     * Set the tx-read latch for @p line (must be L1-resident).
     * @param l1_slot The AccessResult::l1Slot of the fetch that
     *        brought the line; a stale slot (or npos) costs a probe.
     */
    void markTxRead(CpuId cpu, Addr line,
                    std::size_t l1_slot = CacheArray::npos);

    /**
     * Set the tx-dirty latch for @p line, as markTxRead(). Returns
     * false when the line has left the L1 since its fetch (the
     * caller aborts: a tx-dirty mark needs an L1-resident line).
     */
    bool markTxDirty(CpuId cpu, Addr line,
                     std::size_t l1_slot = CacheArray::npos);

    /** Clear tx latches and the LRU-extension vector (TBEGIN/end). */
    void clearTxMarks(CpuId cpu);

    /**
     * Turn off the L1 valid bits of all tx-dirty lines (abort path:
     * "effectively removing them from the L1 instantaneously").
     * Lines remain L2-resident and exclusively owned.
     */
    void killTxDirtyLines(CpuId cpu);

    /** tx-read latch state of @p line in @p cpu's L1. */
    bool txRead(CpuId cpu, Addr line) const;

    /** tx-dirty latch state of @p line in @p cpu's L1. */
    bool txDirty(CpuId cpu, Addr line) const;

    /** True if @p cpu's LRU-extension row covers @p line. */
    bool lruExtensionHit(CpuId cpu, Addr line) const;

    /** True if any LRU-extension row is set for @p cpu. */
    bool lruExtensionAny(CpuId cpu) const;
    /** @} */

    /**
     * Enable/disable the LRU-extension scheme. With it disabled, a
     * tx-read line displaced from the L1 immediately aborts the
     * transaction (footprint limited to L1 capacity); this is the
     * "No LRU extension" ablation of Figure 5(f).
     */
    void setLruExtensionEnabled(bool enabled);

    /**
     * @name Introspection for tests and stats
     * inL1/inL2 panic on a CPU whose caches were not built; inL3/inL4
     * answer false for a chip or MCM whose cache was not built.
     * @{
     */
    bool inL1(CpuId cpu, Addr line) const;
    bool inL2(CpuId cpu, Addr line) const;
    bool inL3(unsigned chip, Addr line) const;
    bool inL4(unsigned mcm, Addr line) const;
    const CoherenceDirectory &directory() const { return dir_; }
    const Topology &topology() const { return topo_; }
    const LatencyModel &latencyModel() const { return lat_; }
    const HierarchyGeometry &geometry() const { return geo_; }
    const StatGroup &stats() const { return stats_; }
    /** @} */

    /**
     * Verify the inclusivity and directory/array consistency
     * invariants; panics on violation (used by property tests).
     */
    void checkInvariants() const;

    /**
     * Verify every cache array's per-set metadata (valid masks,
     * tag-to-set mapping, flagged-entry counts) against a
     * ground-truth walk, and that every valid L1 line of each built
     * CPU is in its L2 and held by it in the directory (fetch()
     * answers L1 read hits on that rule). @return Empty string when
     * consistent, else the first violation (chaos-oracle hook;
     * soft-failing counterpart of checkInvariants()).
     */
    std::string indexCheck() const;

    /**
     * @name Fault-injection hooks (src/inject)
     * @{
     */
    /** Register (or clear, with nullptr) the XI delay probe. */
    void setXiDelayProbe(XiDelayProbe *probe) { xiProbe_ = probe; }

    /**
     * Lines currently part of @p cpu's transactional footprint an
     * adversary can aim conflict XIs at: lines marked tx-read or
     * tx-dirty in the L1, plus evicted-but-tracked lines whose
     * tx-read promise lives on in an LRU-extension row. The latter
     * come from a per-CPU shadow list the hierarchy keeps alongside
     * the (imprecise, row-granular) extension vector.
     */
    std::vector<Addr> txFootprintLines(CpuId cpu) const;

    /**
     * The evicted-but-tracked lines of @p cpu: tx-read lines that
     * were displaced from the L1 while their promise was preserved
     * by an LRU-extension row. Cleared with the tx marks.
     */
    const std::vector<Addr> &lruTrackedLines(CpuId cpu) const
    {
        return lruExtTracked_[cpu];
    }

    /**
     * Send a hostile conflict XI for @p line to @p target on behalf
     * of no real requester: an Exclusive XI when the target owns the
     * line (rejectable — stiff-arming defends) or a ReadOnly XI when
     * it merely shares it (not rejectable). On Accept the line is
     * removed from the target, keeping the directory consistent, as
     * if a remote CPU had claimed it.
     * @return True if the line was taken (XI accepted), false if the
     *         target stiff-armed or does not hold the line.
     */
    bool injectAdversarialXi(CpuId target, Addr line);

    /**
     * Shrink @p cpu's effective L1/L2 associativity to @p l1_ways /
     * @p l2_ways (0 restores the configured geometry). Subsequent
     * fills behave as if the extra ways did not exist, forcing
     * capacity evictions — and through inclusivity, LRU-XI aborts —
     * long before the nominal cache size. Resident lines are not
     * flushed eagerly; they fall out through replacement.
     */
    void squeezeCapacity(CpuId cpu, unsigned l1_ways,
                         unsigned l2_ways);
    /** @} */

    /**
     * @name Line-poisoning RAS model (src/inject, DESIGN.md §5c)
     *
     * Poison is metadata on the functional line image (the arrays
     * hold tags only): the `cached` bit says some cached copy of the
     * line is corrupt, the `memory` bit says the home/memory image
     * itself is corrupt so a refresh-from-memory cannot scrub it.
     * Propagation (fetch intervention, castout, XI data transfer) is
     * counted but — by design — never escalates cached poison to the
     * memory image; memory-side poison exists only via injection.
     * @{
     */
    /** Poison state bits returned by poisonState(). */
    static constexpr std::uint8_t poisonCached = 0x1;
    static constexpr std::uint8_t poisonMemorySide = 0x2;

    /**
     * Inject poison on @p line. With
     * @p memory_side the home image is corrupt too: scrubLine()
     * cannot recover it and the OS model kills/restarts instead.
     */
    void poisonLine(Addr line, bool memory_side);

    /** True if some cached copy of @p line is poisoned. */
    bool
    poisonedCached(Addr line) const
    {
        if (!poisonActive_)
            return false;
        const auto it = poison_.find(line);
        return it != poison_.end() && (it->second & poisonCached);
    }

    /** True if the memory image of @p line is poisoned. */
    bool
    poisonedMemory(Addr line) const
    {
        if (!poisonActive_)
            return false;
        const auto it = poison_.find(line);
        return it != poison_.end() && (it->second & poisonMemorySide);
    }

    /** Cheap gate: any line poisoned anywhere right now. */
    bool anyPoisoned() const { return poisonActive_; }

    /** Raw poison bits of @p line (tests). */
    std::uint8_t
    poisonState(Addr line) const
    {
        const auto it = poison_.find(line);
        return it == poison_.end() ? 0 : it->second;
    }

    /**
     * Machine-check recovery, step 1: refresh
     * the cached image of @p line from memory.
     * @return True if the scrub succeeded (memory image clean);
     *         false when the memory image is itself poisoned.
     */
    bool scrubLine(Addr line);

    /**
     * Machine-check recovery, step 2 for memory-side poison: the OS
     * reinitializes the frame, clearing all
     * poison on @p line. Pairs with kill-and-restart of the
     * workload item that owned the data.
     */
    void reloadLine(Addr line);

    /**
     * True if @p line is currently part of @p cpu's transactional
     * footprint (tx-read/tx-dirty latch or evicted-but-tracked LRU
     * extension). Cheap single-line variant of txFootprintLines().
     */
    bool inTxFootprint(CpuId cpu, Addr line) const;
    /** @} */

    /**
     * Invalidate every line of @p cpu's L1 and L2 (and its
     * directory holdings) — a cold-cache reset used by Monte-Carlo
     * harnesses that reuse one machine across trials. Must not be
     * called while the CPU has transactional marks outstanding.
     */
    void flushCpuCaches(CpuId cpu);

  private:
    /** Panic, naming @p what, unless @p cpu's caches were built. */
    void checkBuilt(CpuId cpu, const char *what) const;
    /**
     * Fetch of a line @p cpu holds (with ownership, if asked);
     * @p p1 is its L1 probe, taken before any state moved.
     */
    AccessResult localHit(CpuId cpu, Addr line,
                          const CacheArray::Probe &p1);
    /** Topology::distance from the precomputed ranges (no division). */
    Distance distance(CpuId cpu, CpuId other) const;
    /**
     * Where a miss of @p cpu on @p line is supplied from; @p slot is
     * the line's directory slot, read before any state moves.
     */
    DataSource findSource(CpuId cpu, Addr line,
                          CoherenceDirectory::Slot slot) const;
    /**
     * @param other_holder Another CPU held @p line before the fill.
     */
    void propagatePoisonOnFill(Addr line, bool other_holder,
                               DataSource source);
    XiResponse sendXi(XiKind kind, Addr line, CpuId target,
                      CpuId requester);
    Cycles probeDelay(XiKind kind, CpuId target, CpuId requester);
    void removeFromCpu(CpuId cpu, Addr line);
    /** Fill @p line into @p cpu's L1-L4; @return its L1 slot. */
    std::size_t installLocal(CpuId cpu, Addr line);
    /**
     * Insert @p line into @p cpu's L1 at the slot a probeForInsert
     * miss found, handling the displaced line. @return The slot.
     */
    std::size_t insertL1At(CpuId cpu, Addr line,
                           const CacheArray::Probe &probe);
    void handleL2Evict(CpuId cpu, Addr victim);
    void handleL3Evict(unsigned chip, Addr victim);
    void handleL4Evict(unsigned mcm, Addr victim);
    CacheClient *client(CpuId cpu) const;

    Topology topo_;
    LatencyModel lat_;
    HierarchyGeometry geo_;
    CoherenceDirectory dir_;
    /** Per built CPU, chip and MCM; see the class comment. */
    std::vector<CacheArray> l1_;
    std::vector<CacheArray> l2_;
    std::vector<CacheArray> l3_;
    std::vector<CacheArray> l4_;
    std::vector<CacheClient *> clients_;
    /** Per-CPU LRU-extension vector, one bit per L1 row. */
    std::vector<std::vector<bool>> lruExt_;
    /**
     * Per-CPU shadow of the extension vector at line granularity:
     * the tx-read lines actually displaced while tracked, so the
     * footprint stays enumerable for injection targeting.
     */
    std::vector<std::vector<Addr>> lruExtTracked_;
    bool lruExtEnabled_ = true;
    /** A CPU's chip and MCM as CPU-number ranges [lo, hi). */
    struct Neighbourhood
    {
        CpuId chipLo, chipHi;
        CpuId mcmLo, mcmHi;
    };
    /** Per built CPU, precomputed for findSource and distance(). */
    std::vector<Neighbourhood> near_;
    /** Poison bits per line (poisonCached/poisonMemorySide). */
    std::unordered_map<Addr, std::uint8_t> poison_;
    /** Fast gate for the common no-poison case. */
    bool poisonActive_ = false;
    XiDelayProbe *xiProbe_ = nullptr;
    StatGroup stats_{"hierarchy"};
    /** @name Counters, declared in stats_ @{ */
    Counter fetchTotal_{stats_, "fetch.total"};
    Counter l1Hit_{stats_, "fetch.l1_hit"};
    Counter l2Hit_{stats_, "fetch.l2_hit"};
    Counter fetchMiss_{stats_, "fetch.miss"};
    Counter l1Evict_{stats_, "l1.evict"};
    Counter lruExtSet_{stats_, "l1.lru_ext_set"};
    Counter txDirtyKilled_{stats_, "l1.tx_dirty_killed"};
    Counter l2Evict_{stats_, "l2.evict"};
    Counter l3Evict_{stats_, "l3.evict"};
    Counter l4Evict_{stats_, "l4.evict"};
    Counter xiReadOnly_{stats_, "xi.read-only"};
    Counter xiDemote_{stats_, "xi.demote"};
    Counter xiExclusive_{stats_, "xi.exclusive"};
    Counter xiLru_{stats_, "xi.lru"};
    Counter xiRejected_{stats_, "xi.rejected"};
    Counter xiDelayed_{stats_, "xi.delayed"};
    Counter poisonInjected_{stats_, "poison.injected"};
    Counter poisonScrubbed_{stats_, "poison.scrubbed"};
    Counter poisonReloaded_{stats_, "poison.reloaded"};
    Counter poisonSpreadFetch_{stats_, "poison.spread_fetch"};
    Counter poisonSpreadCastout_{stats_, "poison.spread_castout"};
    Counter poisonSpreadXi_{stats_, "poison.spread_xi"};
    /** @} */
};

} // namespace ztx::mem

#endif // ZTX_MEM_HIERARCHY_HH
