/**
 * @file
 * Global coherence directory: which CPUs hold each line and in what
 * state (one exclusive owner, or a set of read-only sharers), plus a
 * per-line mask of the chips whose L3 the line is resident in.
 *
 * The real machine distributes this state across the inclusive L3/L4
 * directories; a single logical directory is an exact functional model
 * of "the SMP protocol knows who owns what", which is all the TM
 * mechanisms depend on. Timing still honors the hierarchy via the
 * latency model.
 *
 * Storage (perf): an open-addressed, power-of-two flat table in
 * structure-of-arrays layout — a key array probed linearly, and
 * parallel value arrays (owner / sharer words / L3 mask). A
 * directory access is one hash, a short linear key scan in a single
 * cache line or two, and indexed loads from the value arrays — no
 * node pointer chase, no bucket list. The sharer-word count per line
 * is sized at configure() time from the machine's CPU count (one
 * 64-bit word per 64 CPUs), so small topologies touch one word where
 * the compile-time worst case (maxDirectoryCpus) would touch 16.
 * Slots are never erased: an idle entry keeps its L3-residency mask.
 */

#ifndef ZTX_MEM_DIRECTORY_HH
#define ZTX_MEM_DIRECTORY_HH

#include <bitset>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ztx::mem {

/** Upper bound on CPUs a directory entry can track. */
inline constexpr unsigned maxDirectoryCpus = 1024;

/** Upper bound on chips the L3-residency mask can track. */
inline constexpr unsigned maxDirectoryChips = 64;

/** Point-in-time coherence state of one line (a plain snapshot). */
struct DirectoryEntry
{
    /** Exclusive owner, or invalidCpu when held read-only/not held. */
    CpuId owner = invalidCpu;

    /** Read-only holders (meaningful when owner == invalidCpu). */
    std::bitset<maxDirectoryCpus> sharers;

    /** Bit @c c set: the line is resident in chip @c c's L3. */
    std::uint64_t l3Mask = 0;

    /** True if no CPU holds the line in any state. */
    bool
    idle() const
    {
        return owner == invalidCpu && sharers.none();
    }
};

/** Map from line address to global coherence state. */
class CoherenceDirectory
{
  public:
    CoherenceDirectory() = default;

    CoherenceDirectory(const CoherenceDirectory &) = delete;
    CoherenceDirectory &operator=(const CoherenceDirectory &) = delete;

    /**
     * Size the per-line sharer storage for @p num_cpus CPUs (rounded
     * up to a multiple of 64, clamped to at least 64). Must be
     * called before any entry exists; the hierarchy calls it once at
     * construction. Without it the directory tracks the full
     * maxDirectoryCpus worst case.
     */
    void configure(unsigned num_cpus);

    /** Snapshot of @p line's state (absent lines read as idle). */
    DirectoryEntry lookup(Addr line) const;

    /** True if @p cpu holds @p line in any state. */
    bool holds(CpuId cpu, Addr line) const;

    /** Record @p cpu as the sole exclusive owner. */
    void setExclusive(Addr line, CpuId cpu);

    /** Add @p cpu as a read-only sharer (owner must be invalid). */
    void addSharer(Addr line, CpuId cpu);

    /**
     * Demote the exclusive owner to a read-only sharer.
     * Line must currently be owned exclusively.
     */
    void demoteOwner(Addr line);

    /** Remove @p cpu from the holders of @p line (any state). */
    void remove(Addr line, CpuId cpu);

    /** Sharers of @p line other than @p except. */
    std::vector<CpuId> sharersExcept(Addr line, CpuId except) const;

    /** Number of lines some CPU currently holds (non-idle entries). */
    std::size_t trackedLines() const;

    /** @name L3-residency mask @{ */
    void setL3Resident(Addr line, unsigned chip);
    void clearL3Resident(Addr line, unsigned chip);
    /** @} */

    /**
     * Invoke @p fn(Addr, const DirectoryEntry &) for every tracked
     * line, idle ones included (invariant checks).
     */
    template <typename Fn>
    void
    forEachEntry(Fn &&fn) const
    {
        for (std::size_t i = 0; i < capacity_; ++i)
            if (keys_[i] != emptyKey)
                fn(keys_[i], lookup(keys_[i]));
    }

    /** @name Flat-table introspection (tests, stats) @{ */
    /** Allocated slot count (a power of two, 0 before first use). */
    std::size_t capacity() const { return capacity_; }
    /** Occupied slot count (idle entries included — never erased). */
    std::size_t size() const { return used_; }
    /** Sharer words maintained per line (configure()-dependent). */
    unsigned sharerWords() const { return sharerWords_; }
    /** @} */

  private:
    /**
     * Empty-slot sentinel. Real keys are line-aligned (low
     * lineSizeLog2 bits clear), so the all-ones pattern can never
     * collide with one.
     */
    static constexpr Addr emptyKey = ~Addr(0);
    static constexpr std::size_t npos = ~std::size_t(0);
    /** First table allocation: 256 slots. */
    static constexpr std::size_t initialCapacity = 256;

    /** Slot index of @p line's probe start. */
    std::size_t
    probeStart(Addr line) const
    {
        // Fibonacci hashing on the line number; the low bits of a
        // line address are the offset (always zero here) and the
        // next bits are dense sequential indices, so multiplicative
        // mixing matters.
        const std::uint64_t h =
            (std::uint64_t(line) >> lineSizeLog2) *
            0x9e3779b97f4a7c15ULL;
        return std::size_t(h >> 32) & mask_;
    }

    /** Slot of @p line, or npos when absent. */
    std::size_t findIndex(Addr line) const;

    /** Slot of @p line, created on demand (may rehash). */
    std::size_t ensureIndex(Addr line);

    /** Grow to @p new_cap slots and migrate every entry. */
    void rehash(std::size_t new_cap);

    /** Raw insert during rehash/creation: no growth check. */
    std::size_t insertKey(Addr line);

    unsigned sharerWords_ = maxDirectoryCpus / 64;
    std::size_t capacity_ = 0;
    std::size_t mask_ = 0;
    std::size_t used_ = 0;
    std::vector<Addr> keys_;
    std::vector<CpuId> owner_;
    /** Slot-major: slot i's words at [i*sharerWords_, ...). */
    std::vector<std::uint64_t> sharers_;
    std::vector<std::uint64_t> l3Mask_;
};

} // namespace ztx::mem

#endif // ZTX_MEM_DIRECTORY_HH
