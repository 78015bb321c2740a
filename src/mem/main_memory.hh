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
 * Storage (perf): one open-addressed, power-of-two table of
 * (line address, Line pointer) slots, probed linearly from a
 * multiplicative hash of the line number. Slots are never erased.
 * Line payloads are carved from fixed-size chunks, so a Line pointer
 * is stable for the lifetime of the memory even across table growth.
 */

#ifndef ZTX_MEM_MAIN_MEMORY_HH
#define ZTX_MEM_MAIN_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
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

    /**
     * The lineSizeBytes bytes of storage of @p line (line-aligned),
     * or nullptr while the line was never written (it reads as
     * zero). The storage never moves or is freed while the memory
     * lives, so the pointer sees every later write.
     */
    const std::uint8_t *
    lineData(Addr line) const
    {
        const Line *l = findLine(line);
        return l ? l->data() : nullptr;
    }

    /** Number of distinct lines ever written. */
    std::size_t linesAllocated() const;

  private:
    using Line = std::array<std::uint8_t, lineSizeBytes>;

    /** Lines per payload chunk (16 KB chunks). */
    static constexpr std::size_t chunkLines = 64;
    /** First table allocation. */
    static constexpr std::size_t initialCapacity = 256;
    /**
     * Empty-slot sentinel. Real keys are line-aligned (low
     * lineSizeLog2 bits clear), so all-ones can never collide.
     */
    static constexpr Addr emptyKey = ~Addr(0);

    struct Slot
    {
        Addr key = emptyKey;
        Line *line = nullptr;
    };

    std::size_t
    probeStart(Addr line) const
    {
        const std::uint64_t h =
            (std::uint64_t(line) >> lineSizeLog2) *
            0x9e3779b97f4a7c15ULL;
        return std::size_t(h >> 32) & mask_;
    }

    /** Slot index of @p line, or of the empty slot ending its probe. */
    std::size_t probe(Addr line) const;

    /** Line lookup without allocation; nullptr when untouched. */
    const Line *findLine(Addr line) const;

    /** Line lookup, allocating a zero-filled line when absent. */
    Line &ensureLine(Addr line);

    /** Grow the table to @p cap slots and migrate every entry. */
    void grow(std::size_t cap);

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t used_ = 0;
    /** Stable line payload storage. */
    std::vector<std::unique_ptr<std::array<Line, chunkLines>>> chunks_;
    std::size_t chunkNext_ = chunkLines;
};

} // namespace ztx::mem

#endif // ZTX_MEM_MAIN_MEMORY_HH
