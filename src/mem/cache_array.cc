#include "cache_array.hh"

#include <bit>
#include <limits>
#include <utility>

#include "common/log.hh"

namespace ztx::mem {

CacheArray::CacheArray(const CacheGeometry &geometry, std::string name)
    : rows_(geometry.rows()), assoc_(geometry.assoc),
      effAssoc_(geometry.assoc), name_(std::move(name))
{
    if (rows_ == 0 || assoc_ == 0)
        ztx_fatal("cache '", name_, "' has zero rows or ways");
    if (assoc_ > 32)
        ztx_fatal("cache '", name_,
                  "' associativity exceeds the valid-mask width");
    if (rows_ * assoc_ > std::numeric_limits<std::uint32_t>::max())
        ztx_fatal("cache '", name_,
                  "' has more lines than a row head can index");
    heads_.resize(rows_);
}

unsigned
CacheArray::ctz32(std::uint32_t v)
{
    return unsigned(std::countr_zero(v));
}

std::size_t
CacheArray::findIdx(Addr line) const
{
    const RowHead &head = heads_[row(line)];
    std::uint32_t ways = head.valid;
    while (ways != 0) {
        const unsigned w = ctz32(ways);
        ways &= ways - 1;
        const std::size_t i = base(head) + w;
        if (tags_[i] == line)
            return i;
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
CacheArray::orFlags(std::size_t i, std::uint8_t bits)
{
    if (flags_[i] == 0 && bits != 0)
        ++flagged_;
    flags_[i] |= bits;
}

void
CacheArray::setFlags(Addr line, std::uint8_t bits)
{
    const std::size_t i = findIdx(line);
    if (i == npos)
        ztx_panic("setFlags on absent line in ", name_);
    orFlags(i, bits);
}

bool
CacheArray::setFlagsAt(std::size_t idx, Addr line, std::uint8_t bits)
{
    // The slot holds the line while it is a valid way of the line's
    // row tagged with the line. The row test comes first: a pool slot
    // never written holds tag 0, which matches line 0.
    const RowHead &head = heads_[row(line)];
    const std::size_t way = idx - base(head);
    if (head.end != 0 && way < assoc_ && (head.valid >> way & 1) != 0 &&
        tags_[idx] == line) {
        orFlags(idx, bits);
        return true;
    }
    const std::size_t i = findIdx(line);
    if (i == npos)
        return false;
    orFlags(i, bits);
    return true;
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
    // Invalid ways carry no flags (invalidate() clears them), so the
    // pool can be swept without consulting the row heads.
    for (std::uint8_t &f : flags_) {
        const std::uint8_t old = f;
        f = std::uint8_t(old & ~bits);
        if (old != 0 && f == 0)
            --flagged_;
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
    Probe p;
    p.set = row(line);
    const RowHead &head = heads_[p.set];
    const std::uint32_t vmask = head.valid;

    std::uint32_t ways = vmask;
    while (ways != 0) {
        const unsigned w = ctz32(ways);
        ways &= ways - 1;
        const std::size_t i = base(head) + w;
        if (tags_[i] == line) {
            p.hit = true;
            p.idx = i;
            return p;
        }
    }

    const unsigned valid_ways = unsigned(std::popcount(vmask));
    // A capacity squeeze (effAssoc_ < assoc_) forces replacement as
    // soon as the effective ways are occupied, even while physical
    // ways remain free.
    p.wouldEvict = valid_ways >= effAssoc_;
    if (head.end == 0) {
        // Never inserted into: no pool slots yet, nothing to evict.
        p.slot = npos;
    } else if (!p.wouldEvict) {
        const std::uint32_t all =
            assoc_ == 32 ? ~std::uint32_t(0)
                         : (std::uint32_t(1) << assoc_) - 1;
        p.slot = base(head) + ctz32(~vmask & all);
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
            const std::size_t i = base(head) + w;
            if (best == npos || lastUse_[i] < lastUse_[best])
                best = i;
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
    RowHead &head = heads_[p.set];
    std::size_t i = p.slot;
    if (i == npos) {
        // First insert into the row: append its ways to the pools.
        i = tags_.size();
        head.end = std::uint32_t(i + assoc_);
        tags_.resize(i + assoc_);
        lastUse_.resize(i + assoc_);
        flags_.resize(i + assoc_);
    }
    const std::uint32_t bit = std::uint32_t(1) << unsigned(i % assoc_);

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
    head.valid |= bit;
    if (flags != 0)
        ++flagged_;
    victim.slot = i;
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
    return unsigned(std::popcount(heads_[row(line)].valid)) >=
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
    heads_[row(line)].valid &=
        ~(std::uint32_t(1) << unsigned(i % assoc_));
    return true;
}

std::size_t
CacheArray::validCount() const
{
    std::size_t n = 0;
    for (const RowHead &head : heads_)
        n += std::size_t(std::popcount(head.valid));
    return n;
}

std::string
CacheArray::indexCheck() const
{
    const std::size_t pool_rows = rowsAllocated();
    if (tags_.size() != pool_rows * assoc_ ||
        lastUse_.size() != tags_.size() || flags_.size() != tags_.size())
        return name_ + ": pool lengths disagree";
    const std::uint32_t all =
        assoc_ == 32 ? ~std::uint32_t(0)
                     : (std::uint32_t(1) << assoc_) - 1;
    std::vector<bool> owned(pool_rows, false);
    std::size_t owners = 0;
    std::size_t flagged = 0;
    for (std::uint64_t set = 0; set < rows_; ++set) {
        const RowHead &head = heads_[set];
        if ((head.valid & ~all) != 0)
            return name_ + ": valid mask has bits beyond assoc";
        if (head.end == 0) {
            if (head.valid != 0)
                return name_ + ": valid ways in a row with no pool slots";
            continue;
        }
        if (head.end % assoc_ != 0 || head.end > tags_.size())
            return name_ + ": row head points outside the pool rows";
        const std::size_t pool_row = head.end / assoc_ - 1;
        if (owned[pool_row])
            return name_ + ": two rows share pool slots";
        owned[pool_row] = true;
        ++owners;
        const std::size_t b = base(head);
        for (unsigned w = 0; w < assoc_; ++w) {
            if ((head.valid >> w & 1) == 0 && flags_[b + w] != 0)
                return name_ + ": invalid way carries flags";
        }
        std::uint32_t ways = head.valid;
        while (ways != 0) {
            const unsigned w = ctz32(ways);
            ways &= ways - 1;
            const std::size_t i = b + w;
            if (row(tags_[i]) != set)
                return name_ + ": valid tag maps to another set";
            if (flags_[i] != 0)
                ++flagged;
            // Tags must be unique within the set.
            std::uint32_t rest = ways;
            while (rest != 0) {
                const unsigned w2 = ctz32(rest);
                rest &= rest - 1;
                if (tags_[b + w2] == tags_[i])
                    return name_ + ": duplicate tag within a set";
            }
        }
    }
    if (owners != pool_rows)
        return name_ + ": pool slots owned by no row";
    if (flagged != flagged_)
        return name_ + ": flagged-entry count mismatch";
    return "";
}

} // namespace ztx::mem
