#include "main_memory.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/log.hh"

namespace ztx::mem {

std::size_t
MainMemory::probe(Addr line) const
{
    std::size_t i = probeStart(line);
    while (slots_[i].key != line && slots_[i].key != emptyKey)
        i = (i + 1) & mask_;
    return i;
}

const MainMemory::Line *
MainMemory::findLine(Addr line) const
{
    if (slots_.empty())
        return nullptr;
    return slots_[probe(line)].line;
}

void
MainMemory::grow(std::size_t cap)
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    for (const Slot &s : old)
        if (s.key != emptyKey)
            slots_[probe(s.key)] = s;
}

MainMemory::Line &
MainMemory::ensureLine(Addr line)
{
    if (slots_.empty())
        grow(initialCapacity);
    std::size_t i = probe(line);
    if (slots_[i].key == line)
        return *slots_[i].line;

    // Grow at 3/4 load so linear probe runs stay short.
    if ((used_ + 1) * 4 > slots_.size() * 3) {
        grow(slots_.size() * 2);
        i = probe(line);
    }
    if (chunkNext_ == chunkLines) {
        chunks_.push_back(
            std::make_unique<std::array<Line, chunkLines>>());
        chunkNext_ = 0;
    }
    Line &l = (*chunks_.back())[chunkNext_++];
    l.fill(0);
    slots_[i] = {line, &l};
    ++used_;
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
    return used_;
}

} // namespace ztx::mem
