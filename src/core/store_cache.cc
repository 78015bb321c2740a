#include "store_cache.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "mem/main_memory.hh"

namespace ztx::core {

namespace {

/** npos for map-slot indices (entries use the 16-bit npos). */
constexpr std::size_t noSlot = ~std::size_t(0);

/**
 * Call @p f with the index of every bit set in @p mask, in index
 * order. Each word is read once, so @p f may clear bits it has been
 * called for.
 */
template <typename F>
void
forEachBit(const std::vector<std::uint64_t> &mask, F &&f)
{
    for (std::size_t w = 0; w < mask.size(); ++w)
        for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1)
            f(unsigned(w * 64) + unsigned(std::countr_zero(bits)));
}

} // namespace

GatheringStoreCache::GatheringStoreCache(unsigned num_entries)
    : entries_(num_entries)
{
    if (num_entries == 0)
        ztx_fatal("store cache needs at least one entry");
    if (num_entries >= npos)
        ztx_fatal("store cache capacity exceeds the index width");
    const std::size_t map_size =
        std::bit_ceil(std::size_t(std::max(64u, num_entries * 4u)));
    map_.resize(map_size);
    mapMask_ = map_size - 1;
    liveMask_.assign((num_entries + 63) / 64, 0);
}

std::size_t
GatheringStoreCache::mapHome(Addr block) const
{
    return std::size_t(
               (std::uint64_t(block >> 7) * 0x9E3779B97F4A7C15ull) >>
               32) &
           mapMask_;
}

std::size_t
GatheringStoreCache::mapFind(Addr block) const
{
    for (std::size_t i = mapHome(block);; i = (i + 1) & mapMask_) {
        if (map_[i].entry == npos)
            return noSlot;
        if (map_[i].block == block)
            return i;
    }
}

void
GatheringStoreCache::mapErase(std::size_t i)
{
    // Backward-shift deletion keeps linear probing tombstone-free:
    // pull every displaced follower whose home slot is outside the
    // gap back over the hole.
    std::size_t hole = i;
    for (std::size_t j = (hole + 1) & mapMask_;
         map_[j].entry != npos; j = (j + 1) & mapMask_) {
        const std::size_t home = mapHome(map_[j].block);
        if (((j - home) & mapMask_) >= ((j - hole) & mapMask_)) {
            map_[hole] = map_[j];
            hole = j;
        }
    }
    map_[hole].entry = npos;
}

void
GatheringStoreCache::indexInsert(unsigned idx)
{
    const Addr block = entries_[idx].block;
    std::size_t slot = mapHome(block);
    while (map_[slot].entry != npos)
        slot = (slot + 1) & mapMask_;
    map_[slot] = {block, std::uint16_t(idx)};
    liveMask_[idx / 64] |= std::uint64_t(1) << (idx % 64);
    ++live_;
}

void
GatheringStoreCache::indexRemove(unsigned idx)
{
    const std::size_t slot = mapFind(entries_[idx].block);
    if (slot == noSlot || map_[slot].entry != idx)
        ztx_panic("store-cache index: live entry not mapped");
    mapErase(slot);
    liveMask_[idx / 64] &= ~(std::uint64_t(1) << (idx % 64));
    --live_;
}

unsigned
GatheringStoreCache::allocate(mem::MainMemory &memory)
{
    if (live_ < capacity()) {
        // First free slot in entry-array order.
        for (std::size_t w = 0; w < liveMask_.size(); ++w) {
            std::uint64_t free_bits = ~liveMask_[w];
            const std::size_t base = w * 64;
            const std::size_t tail = capacity() - base;
            if (tail < 64)
                free_bits &= (std::uint64_t(1) << tail) - 1;
            if (free_bits != 0)
                return unsigned(base) +
                       unsigned(std::countr_zero(free_bits));
        }
        ztx_panic("store-cache occupancy bitmap disagrees with live "
                  "count");
    }
    // A transaction's entries cannot be written back before it ends.
    if (inTx_)
        return npos;
    unsigned oldest = npos;
    forEachBit(liveMask_, [&](unsigned idx) {
        if (oldest == npos || entries_[idx].seq < entries_[oldest].seq)
            oldest = idx;
    });
    drainEntry(oldest, memory);
    counters_.evictions.inc();
    return oldest;
}

void
GatheringStoreCache::writeBack(Entry &e, mem::MainMemory &memory)
{
    if (!e.dirty)
        return;
    memory.writeMasked(e.block, e.data.data(), storeCacheBlockBytes,
                       e.valid.data());
    e.dirty = false;
}

void
GatheringStoreCache::drainEntry(unsigned idx, mem::MainMemory &memory)
{
    writeBack(entries_[idx], memory);
    indexRemove(idx);
}

void
GatheringStoreCache::storeBlockPiece(Entry &entry, Addr addr,
                                     const std::uint8_t *bytes,
                                     unsigned len, bool ntstg)
{
    const std::uint64_t off = addr - entry.block;
    for (unsigned i = 0; i < len; ++i) {
        const std::uint64_t b = off + i;
        const std::uint64_t dw = b / 8;
        if (entry.validByte(b) && entry.ntstg[dw] != ntstg) {
            // The architecture requires NTSTG targets not to overlap
            // other stores of the transaction; the outcome would be
            // unpredictable on real hardware. Record it.
            counters_.ntstgOverlap.inc();
        }
        entry.data[b] = bytes[i];
        entry.valid[b / 64] |= std::uint64_t(1) << (b % 64);
        if (ntstg)
            entry.ntstg.set(dw);
    }
    entry.dirty = true;
}

bool
GatheringStoreCache::store(Addr addr, const std::uint8_t *bytes,
                           unsigned len, bool ntstg,
                           mem::MainMemory &memory)
{
    while (len > 0) {
        const Addr block = storeCacheBlockAlign(addr);
        const unsigned in_block = unsigned(
            std::min<std::uint64_t>(len,
                                    block + storeCacheBlockBytes -
                                        addr));
        const std::size_t slot = mapFind(block);
        unsigned idx;
        if (slot != noSlot) {
            idx = map_[slot].entry;
            counters_.gathers.inc();
        } else {
            idx = allocate(memory);
            if (idx == npos) {
                counters_.overflows.inc();
                return false;
            }
            Entry &e = entries_[idx];
            e.block = block;
            e.seq = ++seq_;
            e.valid = {};
            e.ntstg.reset();
            indexInsert(idx);
            counters_.allocations.inc();
        }
        storeBlockPiece(entries_[idx], addr, bytes, in_block, ntstg);
        addr += in_block;
        bytes += in_block;
        len -= in_block;
    }
    return true;
}

void
GatheringStoreCache::overlay(Addr addr, unsigned len,
                             std::uint8_t *buf) const
{
    if (live_ == 0 || len == 0)
        return;
    // Each block has at most one entry, so the entries a load
    // touches hold disjoint bytes and their order does not matter.
    const Addr last_block = storeCacheBlockAlign(addr + len - 1);
    for (Addr block = storeCacheBlockAlign(addr);;
         block += storeCacheBlockBytes) {
        const std::size_t slot = mapFind(block);
        if (slot != noSlot) {
            const Entry &e = entries_[map_[slot].entry];
            const Addr lo = std::max(addr, block);
            const Addr hi =
                std::min(addr + len, block + storeCacheBlockBytes);
            for (Addr b = lo; b < hi; ++b)
                if (e.validByte(b - block))
                    buf[b - addr] = e.data[b - block];
        }
        if (block == last_block)
            return;
    }
}

void
GatheringStoreCache::beginTransaction(mem::MainMemory &memory)
{
    if (inTx_)
        ztx_panic("store-cache beginTransaction inside a transaction");
    // Functionally the entries reach memory within the TBEGIN step
    // (a clean entry's data already has).
    forEachBit(liveMask_,
               [&](unsigned idx) { drainEntry(idx, memory); });
    inTx_ = true;
}

void
GatheringStoreCache::commitTransaction(mem::MainMemory &memory)
{
    if (!inTx_)
        return;
    inTx_ = false;
    // The entries become normal (clean) ones; post-transaction
    // stores may keep gathering into them until the next TBEGIN
    // drains them, which writes them again only if they did.
    forEachBit(liveMask_, [&](unsigned idx) {
        Entry &e = entries_[idx];
        writeBack(e, memory);
        e.ntstg.reset();
    });
}

void
GatheringStoreCache::abortTransaction(mem::MainMemory &memory)
{
    if (!inTx_)
        return;
    inTx_ = false;
    forEachBit(liveMask_, [&](unsigned idx) {
        const Entry &e = entries_[idx];
        // NTSTG doublewords are committed even on abort: write the
        // valid bytes of every marked doubleword.
        if (e.ntstg.any()) {
            std::array<std::uint64_t, storeCacheBlockBytes / 64> mask{};
            for (std::size_t dw = 0; dw < e.ntstg.size(); ++dw)
                if (e.ntstg[dw])
                    mask[dw / 8] |= std::uint64_t(0xFF) << (dw % 8 * 8);
            for (std::size_t k = 0; k < mask.size(); ++k)
                mask[k] &= e.valid[k];
            memory.writeMasked(e.block, e.data.data(),
                               storeCacheBlockBytes, mask.data());
        }
        indexRemove(idx);
    });
}

bool
GatheringStoreCache::hasAnyLine(Addr line) const
{
    if (live_ == 0 || lineAlign(line) != line)
        return false;
    for (Addr block = line; block < line + lineSizeBytes;
         block += storeCacheBlockBytes)
        if (mapFind(block) != noSlot)
            return true;
    return false;
}

void
GatheringStoreCache::drainLine(Addr line, mem::MainMemory &memory)
{
    if (inTx_ || live_ == 0 || lineAlign(line) != line)
        return;
    for (Addr block = line; block < line + lineSizeBytes;
         block += storeCacheBlockBytes) {
        const std::size_t slot = mapFind(block);
        if (slot != noSlot)
            drainEntry(map_[slot].entry, memory);
    }
}

void
GatheringStoreCache::drainAll(mem::MainMemory &memory)
{
    if (inTx_)
        return;
    forEachBit(liveMask_,
               [&](unsigned idx) { drainEntry(idx, memory); });
}

std::string
GatheringStoreCache::indexCheck() const
{
    unsigned live = 0;
    std::string why;
    forEachBit(liveMask_, [&](unsigned idx) {
        ++live;
        const std::size_t slot = mapFind(entries_[idx].block);
        if (why.empty() && (slot == noSlot || map_[slot].entry != idx))
            why = "entry " + std::to_string(idx) +
                  ": not its block's mapped entry";
    });
    if (!why.empty())
        return why;
    if (live != live_)
        return "live count mismatch";
    unsigned mapped = 0;
    for (const MapSlot &s : map_) {
        if (s.entry == npos)
            continue;
        ++mapped;
        if (s.entry >= capacity() ||
            !((liveMask_[s.entry / 64] >> (s.entry % 64)) & 1) ||
            entries_[s.entry].block != s.block)
            return "map slot names a dead or foreign entry";
    }
    if (mapped != live_)
        return "map slot count mismatch";
    return "";
}

} // namespace ztx::core
