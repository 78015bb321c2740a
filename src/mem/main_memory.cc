#include "main_memory.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/log.hh"

namespace ztx::mem {

namespace {

constexpr auto relaxed = std::memory_order_relaxed;
constexpr auto acquire = std::memory_order_acquire;
constexpr auto release = std::memory_order_release;

} // namespace

MainMemory::Table::Table(std::size_t cap)
    : mask(cap - 1), keys(cap), vals(cap)
{
    for (auto &k : keys)
        k.store(emptyKey, relaxed);
}

const MainMemory::Line *
MainMemory::findIn(const Shard &sh, Addr line) const
{
    const Table *t = sh.table.load(acquire);
    if (!t)
        return nullptr;
    std::size_t i = probeStart(line, t->mask);
    while (true) {
        const Addr k = t->keys[i].load(acquire);
        if (k == line)
            return t->vals[i].load(relaxed);
        if (k == emptyKey)
            return nullptr;
        i = (i + 1) & t->mask;
    }
}

const MainMemory::Line *
MainMemory::findLine(Addr line) const
{
    return findIn(shards_[shardOf(line)], line);
}

MainMemory::Table *
MainMemory::grow(Shard &sh, std::size_t cap)
{
    auto next = std::make_unique<Table>(cap);
    if (const Table *old = sh.table.load(relaxed)) {
        for (std::size_t i = 0; i <= old->mask; ++i) {
            const Addr k = old->keys[i].load(relaxed);
            if (k == emptyKey)
                continue;
            std::size_t j = probeStart(k, next->mask);
            while (next->keys[j].load(relaxed) != emptyKey)
                j = (j + 1) & next->mask;
            next->vals[j].store(old->vals[i].load(relaxed),
                                relaxed);
            next->keys[j].store(k, relaxed);
        }
    }
    Table *t = next.get();
    sh.generations.push_back(std::move(next));
    // Old generations stay alive for concurrent readers; the new
    // table is published with every migrated entry visible.
    sh.table.store(t, release);
    return t;
}

MainMemory::Line &
MainMemory::ensureLine(Addr line)
{
    Shard &sh = shards_[shardOf(line)];
    // Lock-free fast path: the common case is a line that exists.
    if (const Line *l = findIn(sh, line))
        return const_cast<Line &>(*l);

    std::lock_guard lock(sh.mu);
    Table *t = sh.table.load(relaxed);
    if (!t)
        t = grow(sh, initialCapacity);
    else if ((sh.used + 1) * 4 > (t->mask + 1) * 3)
        t = grow(sh, (t->mask + 1) * 2);

    // Re-probe under the lock: another writer may have inserted
    // the line between the fast path and here.
    std::size_t i = probeStart(line, t->mask);
    while (true) {
        const Addr k = t->keys[i].load(relaxed);
        if (k == line)
            return *t->vals[i].load(relaxed);
        if (k == emptyKey)
            break;
        i = (i + 1) & t->mask;
    }

    if (sh.chunkNext == chunkLines) {
        sh.chunks.push_back(
            std::make_unique<std::array<Line, chunkLines>>());
        sh.chunkNext = 0;
    }
    Line &l = (*sh.chunks.back())[sh.chunkNext++];
    l.fill(0);
    // Publish pointer before key: a reader that sees the key must
    // see the pointer (key release / key acquire pairing).
    t->vals[i].store(&l, relaxed);
    t->keys[i].store(line, release);
    ++sh.used;
    return l;
}

std::uint8_t
MainMemory::readByte(Addr addr) const
{
    const Line *line = findLine(lineAlign(addr));
    return line ? (*line)[lineOffset(addr)] : 0;
}

void
MainMemory::writeByte(Addr addr, std::uint8_t value)
{
    ensureLine(lineAlign(addr))[lineOffset(addr)] = value;
}

std::uint64_t
MainMemory::read(Addr addr, unsigned size) const
{
    if (size == 0 || size > 8)
        ztx_panic("MainMemory::read of unsupported size ", size);
    std::uint8_t buf[8];
    readBlock(addr, buf, size);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < size; ++i)
        v = (v << 8) | buf[i];
    return v;
}

void
MainMemory::write(Addr addr, std::uint64_t value, unsigned size)
{
    if (size == 0 || size > 8)
        ztx_panic("MainMemory::write of unsupported size ", size);
    std::uint8_t buf[8];
    for (unsigned i = 0; i < size; ++i)
        buf[i] = std::uint8_t(value >> (8 * (size - 1 - i)));
    writeBlock(addr, buf, size);
}

void
MainMemory::readBlock(Addr addr, std::uint8_t *out, std::size_t len) const
{
    while (len > 0) {
        const Addr base = lineAlign(addr);
        const std::size_t off = lineOffset(addr);
        const std::size_t chunk =
            std::min<std::size_t>(len, lineSizeBytes - off);
        if (const Line *line = findLine(base))
            std::memcpy(out, line->data() + off, chunk);
        else
            std::memset(out, 0, chunk);
        addr += chunk;
        out += chunk;
        len -= chunk;
    }
}

void
MainMemory::writeBlock(Addr addr, const std::uint8_t *in, std::size_t len)
{
    while (len > 0) {
        const Addr base = lineAlign(addr);
        const std::size_t off = lineOffset(addr);
        const std::size_t chunk =
            std::min<std::size_t>(len, lineSizeBytes - off);
        std::memcpy(ensureLine(base).data() + off, in, chunk);
        addr += chunk;
        in += chunk;
        len -= chunk;
    }
}

void
MainMemory::writeMasked(Addr addr, const std::uint8_t *in,
                        std::size_t len, const std::uint64_t *mask)
{
    const std::size_t off = lineOffset(addr);
    if (off + len > lineSizeBytes)
        ztx_panic("MainMemory::writeMasked across a line boundary");
    Line *line = nullptr;
    for (std::size_t w = 0; w * 64 < len; ++w) {
        std::uint64_t bits = mask[w];
        const std::size_t n = std::min<std::size_t>(64, len - w * 64);
        if (n < 64)
            bits &= (std::uint64_t(1) << n) - 1;
        if (bits == 0)
            continue;
        if (!line)
            line = &ensureLine(lineAlign(addr));
        std::uint8_t *dst = line->data() + off + w * 64;
        const std::uint8_t *src = in + w * 64;
        // Copy each run of consecutive selected bytes.
        while (bits != 0) {
            const unsigned start = unsigned(std::countr_zero(bits));
            const unsigned run =
                unsigned(std::countr_one(bits >> start));
            std::memcpy(dst + start, src + start, run);
            bits = start + run == 64
                       ? 0
                       : bits & (~std::uint64_t(0) << (start + run));
        }
    }
}

std::size_t
MainMemory::linesAllocated() const
{
    std::size_t n = 0;
    for (Shard &sh : shards_) {
        std::lock_guard lock(sh.mu);
        n += sh.used;
    }
    return n;
}

} // namespace ztx::mem
