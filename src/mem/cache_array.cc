#include "cache_array.hh"

#include <sys/mman.h>

#include <bit>
#include <cstring>
#include <new>
#include <utility>

#include "common/log.hh"

namespace ztx::mem {

namespace {

/** Transparent huge page size (x86-64 and arm64 with 4 KiB pages). */
constexpr std::size_t hugePageBytes = std::size_t(2) << 20;
constexpr std::size_t smallPageBytes = 4096;

} // namespace

void
ZeroedBlockDeleter::operator()(void *block) const
{
    if (mappedBytes != 0)
        munmap(block, mappedBytes);
    else
        ::operator delete(block);
}

ZeroedBlock
zeroedBlock(std::size_t bytes)
{
    if (bytes < hugePageBytes) {
        // operator new, not malloc: GCC turns malloc + memset into
        // calloc, which leaves fresh pages to fault in later.
        void *block = ::operator new(bytes);
        std::memset(block, 0, bytes);
        return ZeroedBlock(block, ZeroedBlockDeleter{0});
    }
    // Whole small pages: a tail short of a huge page stays on small
    // pages, so a mapping is never resident beyond its last touched
    // small page (the aligned huge pages before it aside).
    const std::size_t len = (bytes + smallPageBytes - 1) &
                            ~(smallPageBytes - 1);
    // Over-map by one huge page, then unmap the unaligned ends.
    void *raw = mmap(nullptr, len + hugePageBytes,
                     PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                     -1, 0);
    if (raw == MAP_FAILED)
        ztx_fatal("cannot map a ", len, "-byte array");
    const auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t start =
        (base + hugePageBytes - 1) & ~std::uintptr_t(hugePageBytes - 1);
    const std::uintptr_t end = base + len + hugePageBytes;
    if (start > base)
        munmap(raw, start - base);
    if (end > start + len)
        munmap(reinterpret_cast<void *>(start + len),
               end - (start + len));
    void *block = reinterpret_cast<void *>(start);
    madvise(block, len, MADV_HUGEPAGE);
    return ZeroedBlock(block, ZeroedBlockDeleter{len});
}

CacheArray::CacheArray(const CacheGeometry &geometry, std::string name)
    : rows_(geometry.rows()), assoc_(geometry.assoc),
      effAssoc_(geometry.assoc), name_(std::move(name)),
      tags_(rows_ * assoc_), lastUse_(rows_ * assoc_),
      flags_(rows_ * assoc_), validMask_(rows_)
{
    if (rows_ == 0 || assoc_ == 0)
        ztx_fatal("cache '", name_, "' has zero rows or ways");
    if (assoc_ > 32)
        ztx_fatal("cache '", name_,
                  "' associativity exceeds the valid-mask width");
}

unsigned
CacheArray::ctz32(std::uint32_t v)
{
    return unsigned(std::countr_zero(v));
}

std::size_t
CacheArray::findIdx(Addr line) const
{
    const std::uint64_t set = row(line);
    const std::size_t base = std::size_t(set) * assoc_;
    std::uint32_t ways = validMask_[set];
    while (ways != 0) {
        const unsigned w = ctz32(ways);
        ways &= ways - 1;
        if (tags_[base + w] == line)
            return base + w;
    }
    return npos;
}

bool
CacheArray::contains(Addr line) const
{
    return findIdx(line) != npos;
}

std::uint8_t
CacheArray::flagsOf(Addr line) const
{
    const std::size_t i = findIdx(line);
    return i != npos ? flags_[i] : 0;
}

void
CacheArray::setFlags(Addr line, std::uint8_t bits)
{
    const std::size_t i = findIdx(line);
    if (i == npos)
        ztx_panic("setFlags on absent line in ", name_);
    if (flags_[i] == 0 && bits != 0)
        ++flagged_;
    flags_[i] |= bits;
}

void
CacheArray::clearFlags(Addr line, std::uint8_t bits)
{
    const std::size_t i = findIdx(line);
    if (i == npos)
        return;
    const std::uint8_t old = flags_[i];
    flags_[i] = std::uint8_t(old & ~bits);
    if (old != 0 && flags_[i] == 0)
        --flagged_;
}

void
CacheArray::clearFlagsAll(std::uint8_t bits)
{
    if (flagged_ == 0)
        return;
    for (std::uint64_t set = 0; set < rows_; ++set) {
        std::uint32_t ways = validMask_[set];
        while (ways != 0) {
            const unsigned w = ctz32(ways);
            ways &= ways - 1;
            const std::size_t i = std::size_t(set) * assoc_ + w;
            const std::uint8_t old = flags_[i];
            flags_[i] = std::uint8_t(old & ~bits);
            if (old != 0 && flags_[i] == 0)
                --flagged_;
        }
    }
}

bool
CacheArray::findAndTouch(Addr line)
{
    const std::size_t i = findIdx(line);
    if (i == npos)
        return false;
    lastUse_[i] = ++useTick_;
    return true;
}

void
CacheArray::replayTouches(std::uint64_t hits, const Addr *tail,
                          std::size_t tail_len)
{
    const std::uint64_t first = useTick_ + hits - tail_len;
    for (std::size_t j = 0; j < tail_len; ++j) {
        const std::size_t i = findIdx(tail[j]);
        if (i != npos)
            lastUse_[i] = first + j + 1;
    }
    useTick_ += hits;
}

CacheArray::Probe
CacheArray::probeForInsert(Addr line) const
{
    const std::uint64_t set = row(line);
    const std::size_t base = std::size_t(set) * assoc_;
    const std::uint32_t vmask = validMask_[set];

    Probe p;
    std::uint32_t ways = vmask;
    while (ways != 0) {
        const unsigned w = ctz32(ways);
        ways &= ways - 1;
        if (tags_[base + w] == line) {
            p.hit = true;
            p.idx = base + w;
            return p;
        }
    }

    const unsigned valid_ways = unsigned(std::popcount(vmask));
    // A capacity squeeze (effAssoc_ < assoc_) forces replacement as
    // soon as the effective ways are occupied, even while physical
    // ways remain free.
    p.wouldEvict = valid_ways >= effAssoc_;
    if (!p.wouldEvict) {
        const std::uint32_t all =
            assoc_ == 32 ? ~std::uint32_t(0)
                         : (std::uint32_t(1) << assoc_) - 1;
        p.slot = base + ctz32(~vmask & all);
    } else {
        // True LRU among the valid entries of the congruence class
        // (under a squeeze, invalid ways must stay unused). Ticks
        // are unique, so first-strictly-smaller matches the
        // historical way-order scan.
        std::size_t best = npos;
        ways = vmask;
        while (ways != 0) {
            const unsigned w = ctz32(ways);
            ways &= ways - 1;
            if (best == npos ||
                lastUse_[base + w] < lastUse_[best])
                best = base + w;
        }
        p.slot = best;
    }
    return p;
}

CacheArray::Victim
CacheArray::insertAt(const Probe &p, Addr line, std::uint8_t flags)
{
    if (p.hit)
        ztx_panic("double insert of line in ", name_);
    const std::size_t i = p.slot;
    const std::uint64_t set = i / assoc_;
    const unsigned w = unsigned(i % assoc_);
    const std::uint32_t bit = std::uint32_t(1) << w;

    Victim victim;
    if (p.wouldEvict) {
        victim.valid = true;
        victim.line = tags_[i];
        victim.flags = flags_[i];
        if (flags_[i] != 0)
            --flagged_;
    }
    tags_[i] = line;
    flags_[i] = flags;
    lastUse_[i] = ++useTick_;
    validMask_[set] |= bit;
    if (flags != 0)
        ++flagged_;
    return victim;
}

CacheArray::Victim
CacheArray::insert(Addr line, std::uint8_t flags)
{
    if (lineOffset(line) != 0)
        ztx_panic("insert of non-line-aligned address in ", name_);
    return insertAt(probeForInsert(line), line, flags);
}

bool
CacheArray::insertWouldEvict(Addr line) const
{
    return unsigned(std::popcount(validMask_[row(line)])) >=
           effAssoc_;
}

void
CacheArray::setEffectiveAssoc(unsigned ways)
{
    effAssoc_ = (ways == 0 || ways >= assoc_) ? assoc_ : ways;
}

bool
CacheArray::invalidate(Addr line)
{
    const std::size_t i = findIdx(line);
    if (i == npos)
        return false;
    if (flags_[i] != 0)
        --flagged_;
    flags_[i] = 0;
    validMask_[i / assoc_] &=
        ~(std::uint32_t(1) << unsigned(i % assoc_));
    return true;
}

std::size_t
CacheArray::validCount() const
{
    std::size_t n = 0;
    for (std::uint64_t set = 0; set < rows_; ++set)
        n += std::size_t(std::popcount(validMask_[set]));
    return n;
}

std::string
CacheArray::indexCheck() const
{
    std::size_t flagged = 0;
    for (std::uint64_t set = 0; set < rows_; ++set) {
        const std::uint32_t all =
            assoc_ == 32 ? ~std::uint32_t(0)
                         : (std::uint32_t(1) << assoc_) - 1;
        if ((validMask_[set] & ~all) != 0)
            return name_ + ": valid mask has bits beyond assoc";
        std::uint32_t ways = validMask_[set];
        while (ways != 0) {
            const unsigned w = ctz32(ways);
            ways &= ways - 1;
            const std::size_t i = std::size_t(set) * assoc_ + w;
            if (row(tags_[i]) != set)
                return name_ + ": valid tag maps to another set";
            if (flags_[i] != 0)
                ++flagged;
            // Tags must be unique within the set.
            std::uint32_t rest = ways;
            while (rest != 0) {
                const unsigned w2 = ctz32(rest);
                rest &= rest - 1;
                if (tags_[std::size_t(set) * assoc_ + w2] ==
                    tags_[i])
                    return name_ + ": duplicate tag within a set";
            }
        }
    }
    if (flagged != flagged_)
        return name_ + ": flagged-entry count mismatch";
    return "";
}

} // namespace ztx::mem
