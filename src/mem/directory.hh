/**
 * @file
 * Global coherence directory: which CPUs hold each line and in what
 * state (one exclusive owner, or a set of read-only sharers).
 *
 * The real machine distributes this state across the inclusive L3/L4
 * directories; a single logical directory is an exact functional model
 * of "the SMP protocol knows who owns what", which is all the TM
 * mechanisms depend on. Timing still honors the hierarchy via the
 * latency model.
 *
 * Storage (perf): an open-addressed, power-of-two flat table in
 * structure-of-arrays layout — a key array probed linearly, and
 * parallel value arrays (owner / sharer words). A directory access
 * is one hash, a short linear key scan in a single cache line or
 * two, and indexed loads from the value arrays — no node pointer
 * chase, no bucket list. The sharer-word count per line is sized at
 * configure() time from the machine's CPU count (one 64-bit word per
 * 64 CPUs), so small topologies touch one word where the
 * compile-time worst case (maxDirectoryCpus) would touch 16.
 *
 * Every holder has its bit in the sharer words, the owner included:
 * an owned line's words hold exactly the owner's bit. "Does anyone
 * in CPUs [lo, hi) other than me hold it" is therefore a masked test
 * of one or two words, which is how the hierarchy finds the nearest
 * supplier of a line (chip, then MCM, then machine; CPU numbers of a
 * chip and of an MCM are contiguous).
 *
 * Slots are never erased: an idle entry keeps its slot and is reused
 * when the line is held again.
 */

#ifndef ZTX_MEM_DIRECTORY_HH
#define ZTX_MEM_DIRECTORY_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ztx::mem {

/** Upper bound on CPUs a directory entry can track. */
inline constexpr unsigned maxDirectoryCpus = 1024;

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

    /**
     * Handle to one line's state for repeated queries without
     * re-probing the table. It stays valid until the next call that
     * adds a line (setExclusive/addSharer/demoteOwner may rehash).
     */
    struct Slot
    {
        std::size_t index;
    };

    /** Slot of @p line (an untracked line reads as idle). */
    Slot find(Addr line) const { return {findIndex(line)}; }

    /** Exclusive owner at @p slot, or invalidCpu. */
    CpuId
    ownerAt(Slot slot) const
    {
        return slot.index == npos ? invalidCpu : owner_[slot.index];
    }

    /** True if @p cpu holds the line at @p slot in any state. */
    bool
    holdsAt(Slot slot, CpuId cpu) const
    {
        if (slot.index == npos || cpu >= sharerWords_ * 64)
            return false;
        const std::uint64_t word =
            sharers_[slot.index * sharerWords_ + cpu / 64];
        return (word >> (cpu % 64)) & 1;
    }

    /**
     * True if some CPU in [@p lo, @p hi) other than @p except holds
     * the line at @p slot (in any state).
     */
    bool anyHolderIn(Slot slot, CpuId lo, CpuId hi,
                     CpuId except) const;

    /** True if @p cpu holds @p line in any state. */
    bool
    holds(CpuId cpu, Addr line) const
    {
        return holdsAt(find(line), cpu);
    }

    /** Exclusive owner of @p line, or invalidCpu. */
    CpuId owner(Addr line) const { return ownerAt(find(line)); }

    /**
     * Lowest-numbered CPU holding @p line in any state (its owner
     * when owned), or invalidCpu when the line is idle.
     */
    CpuId firstHolder(Addr line) const;

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

    /**
     * Invoke @p fn(CpuId) for every holder of @p line other than
     * @p except, lowest CPU first. @p fn may remove() the CPU it is
     * given from @p line; it must not add lines.
     */
    template <typename Fn>
    void
    forEachHolderExcept(Addr line, CpuId except, Fn &&fn) const
    {
        const std::size_t i = findIndex(line);
        if (i == npos)
            return;
        for (unsigned w = 0; w < sharerWords_; ++w) {
            // One word at a time: fn clears only bits already read.
            std::uint64_t word = sharers_[i * sharerWords_ + w];
            while (word) {
                // The builtin, not std::countr_zero: perfbench's
                // harness includes this header as C++17.
                const CpuId cpu =
                    CpuId(w * 64 + unsigned(__builtin_ctzll(word)));
                word &= word - 1;
                if (cpu != except)
                    fn(cpu);
            }
        }
    }

    /** Number of lines some CPU currently holds (non-idle entries). */
    std::size_t trackedLines() const;

    /**
     * Verify that every owned line's sharer words hold exactly the
     * owner's bit (what anyHolderIn() and holdsAt() rely on).
     * @return Empty string when consistent, else the first violation.
     */
    std::string ownershipCheck() const;

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
    std::size_t
    findIndex(Addr line) const
    {
        if (capacity_ == 0)
            return npos;
        std::size_t i = probeStart(line);
        while (true) {
            const Addr k = keys_[i];
            if (k == line)
                return i;
            if (k == emptyKey)
                return npos;
            i = (i + 1) & mask_;
        }
    }

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
};

} // namespace ztx::mem

#endif // ZTX_MEM_DIRECTORY_HH
