/**
 * @file
 * Functional backing store for the simulated 64-bit address space.
 *
 * zTX separates function from timing: MainMemory always holds the
 * architecturally committed data, while the cache arrays only track
 * presence/ownership for the timing and conflict model. Transactional
 * stores live in the per-CPU gathering store cache until commit and
 * are merged into loads there, so nothing speculative ever reaches
 * this object.
 *
 * Storage (perf): the line index is sharded by line number into
 * fixed, independently locked shards, each an open-addressed
 * power-of-two table of (atomic key, atomic Line pointer) pairs.
 * Lookups are lock-free: probe with acquire loads on the keys; a
 * published key orders the pointer store before it (release), and
 * slots are never erased, so a probe can never falsely miss a line
 * that was published before the probe began. Writers (line
 * allocation) take only their shard's mutex; growth builds a new
 * table, migrates the entries, and publishes it with a release
 * store, retiring the old table (not freeing it) so concurrent
 * readers keep a valid view. Line payloads are carved from chunked
 * shard-local storage, so a Line pointer is stable for the lifetime
 * of the machine.
 *
 * Line *contents* are intentionally unguarded — the coherence model
 * guarantees a byte has exactly one writer at a time (exclusive
 * ownership). A reader concurrent with growth may miss a line
 * published *after* its probe began; that is the same guarantee the
 * former shared-mutex map gave (reads serialized before the insert),
 * and the coherence model already forbids reading a line another CPU
 * is concurrently creating.
 */

#ifndef ZTX_MEM_MAIN_MEMORY_HH
#define ZTX_MEM_MAIN_MEMORY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hh"

namespace ztx::mem {

/** Sparse, line-granular byte store; unwritten bytes read as zero. */
class MainMemory
{
  public:
    MainMemory() = default;

    MainMemory(const MainMemory &) = delete;
    MainMemory &operator=(const MainMemory &) = delete;

    /** Read one byte. */
    std::uint8_t readByte(Addr addr) const;

    /** Write one byte. */
    void writeByte(Addr addr, std::uint8_t value);

    /**
     * Read an unsigned big-endian integer of @p size bytes
     * (1/2/4/8), matching z/Architecture byte order.
     */
    std::uint64_t read(Addr addr, unsigned size) const;

    /** Write an unsigned big-endian integer of @p size bytes. */
    void write(Addr addr, std::uint64_t value, unsigned size);

    /** Bulk copy out of memory. */
    void readBlock(Addr addr, std::uint8_t *out, std::size_t len) const;

    /** Bulk copy into memory. */
    void writeBlock(Addr addr, const std::uint8_t *in, std::size_t len);

    /**
     * Masked bulk copy into memory: write in[i] to addr + i for
     * every i < @p len whose bit (bit i % 64 of mask[i / 64]) is
     * set. [addr, addr + len) must lie within one line. The line is
     * looked up once, and only when the mask selects a byte.
     */
    void writeMasked(Addr addr, const std::uint8_t *in, std::size_t len,
                     const std::uint64_t *mask);

    /** Number of distinct lines ever written. */
    std::size_t linesAllocated() const;

  private:
    using Line = std::array<std::uint8_t, lineSizeBytes>;

    /** Index shards (line-number low bits); a power of two. */
    static constexpr std::size_t numShards = 64;
    /** Lines per payload chunk (16 KB chunks). */
    static constexpr std::size_t chunkLines = 64;
    /** First table allocation per shard. */
    static constexpr std::size_t initialCapacity = 256;
    /**
     * Empty-slot sentinel. Real keys are line-aligned (low
     * lineSizeLog2 bits clear), so all-ones can never collide.
     */
    static constexpr Addr emptyKey = ~Addr(0);

    /** One open-addressed (key, Line*) table generation. */
    struct Table
    {
        explicit Table(std::size_t cap);
        std::size_t mask;
        std::vector<std::atomic<Addr>> keys;
        std::vector<std::atomic<Line *>> vals;
    };

    struct alignas(64) Shard
    {
        /** Current table; null until the first line lands. */
        std::atomic<Table *> table{nullptr};
        /** Writer lock: allocation and growth only. */
        std::mutex mu;
        std::size_t used = 0;
        /** Current + retired generations (readers keep views). */
        std::vector<std::unique_ptr<Table>> generations;
        /** Stable line payload storage. */
        std::vector<std::unique_ptr<std::array<Line, chunkLines>>>
            chunks;
        std::size_t chunkNext = chunkLines;
    };

    static std::size_t
    shardOf(Addr line)
    {
        return std::size_t(line >> lineSizeLog2) &
               (numShards - 1);
    }

    static std::size_t
    probeStart(Addr line, std::size_t mask)
    {
        const std::uint64_t h =
            (std::uint64_t(line) >> lineSizeLog2) *
            0x9e3779b97f4a7c15ULL;
        return std::size_t(h >> 32) & mask;
    }

    /** Lock-free probe of @p sh; nullptr when untouched. */
    const Line *findIn(const Shard &sh, Addr line) const;

    /** Line lookup without allocation; nullptr when untouched. */
    const Line *findLine(Addr line) const;

    /** Line lookup, allocating a zero-filled line when absent. */
    Line &ensureLine(Addr line);

    /** Grow @p sh to @p cap slots (writer lock held). */
    Table *grow(Shard &sh, std::size_t cap);

    mutable std::array<Shard, numShards> shards_;
};

} // namespace ztx::mem

#endif // ZTX_MEM_MAIN_MEMORY_HH
