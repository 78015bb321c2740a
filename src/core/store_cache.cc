#include "store_cache.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "mem/main_memory.hh"

namespace ztx::core {

namespace {

/** npos for map-slot indices (chains use the 16-bit npos). */
constexpr std::size_t noSlot = ~std::size_t(0);

} // namespace

GatheringStoreCache::GatheringStoreCache(unsigned num_entries,
                                         const std::string &name)
    : entries_(num_entries), stats_(name)
{
    if (num_entries == 0)
        ztx_fatal("store cache needs at least one entry");
    if (num_entries >= npos)
        ztx_fatal("store cache capacity exceeds the index width");
    const std::size_t map_size =
        std::bit_ceil(std::size_t(std::max(64u, num_entries * 4u)));
    map_.resize(map_size);
    mapMask_ = map_size - 1;
    next_.assign(num_entries, npos);
    const std::size_t words = (num_entries + 63) / 64;
    liveMask_.assign(words, 0);
    txMask_.assign(words, 0);
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
        if (map_[i].head == npos)
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
         map_[j].head != npos; j = (j + 1) & mapMask_) {
        const std::size_t home = mapHome(map_[j].block);
        if (((j - home) & mapMask_) >= ((j - hole) & mapMask_)) {
            map_[hole] = map_[j];
            hole = j;
        }
    }
    map_[hole].head = npos;
}

void
GatheringStoreCache::indexInsert(unsigned idx)
{
    const Entry &e = entries_[idx];
    std::size_t slot = mapHome(e.block);
    while (map_[slot].head != npos && map_[slot].block != e.block)
        slot = (slot + 1) & mapMask_;
    if (map_[slot].head == npos) {
        map_[slot].block = e.block;
        map_[slot].head = npos;
    }
    // Chains stay in entry-array order so index lookups return
    // exactly what a linear scan of entries_ would have returned.
    std::uint16_t *link = &map_[slot].head;
    while (*link != npos && *link < idx)
        link = &next_[*link];
    next_[idx] = *link;
    *link = std::uint16_t(idx);

    liveMask_[idx / 64] |= std::uint64_t(1) << (idx % 64);
    ++live_;
    const unsigned bucket = lineBucket(e.block);
    if (lineBucketLive_[bucket]++ == 0)
        lineSigLive_ |= std::uint64_t(1) << bucket;
    if (e.transactional) {
        txMask_[idx / 64] |= std::uint64_t(1) << (idx % 64);
        ++liveTx_;
        if (lineBucketTx_[bucket]++ == 0)
            lineSigTx_ |= std::uint64_t(1) << bucket;
    }
}

void
GatheringStoreCache::indexRemove(unsigned idx)
{
    const Entry &e = entries_[idx];
    const std::size_t slot = mapFind(e.block);
    if (slot == noSlot)
        ztx_panic("store-cache index: live entry's block not mapped");
    std::uint16_t *link = &map_[slot].head;
    while (*link != npos && *link != idx)
        link = &next_[*link];
    if (*link != idx)
        ztx_panic("store-cache index: live entry not on its chain");
    *link = next_[idx];
    next_[idx] = npos;
    if (map_[slot].head == npos)
        mapErase(slot);

    liveMask_[idx / 64] &= ~(std::uint64_t(1) << (idx % 64));
    --live_;
    const unsigned bucket = lineBucket(e.block);
    if (--lineBucketLive_[bucket] == 0)
        lineSigLive_ &= ~(std::uint64_t(1) << bucket);
    if (e.transactional) {
        txMask_[idx / 64] &= ~(std::uint64_t(1) << (idx % 64));
        --liveTx_;
        if (--lineBucketTx_[bucket] == 0)
            lineSigTx_ &= ~(std::uint64_t(1) << bucket);
    }
}

void
GatheringStoreCache::indexSetNonTx(unsigned idx)
{
    txMask_[idx / 64] &= ~(std::uint64_t(1) << (idx % 64));
    --liveTx_;
    const unsigned bucket = lineBucket(entries_[idx].block);
    if (--lineBucketTx_[bucket] == 0)
        lineSigTx_ &= ~(std::uint64_t(1) << bucket);
}

GatheringStoreCache::Entry *
GatheringStoreCache::findOpen(Addr block, bool transactional)
{
    const std::size_t slot = mapFind(block);
    if (slot == noSlot)
        return nullptr;
    for (std::uint16_t i = map_[slot].head; i != npos;
         i = next_[i]) {
        Entry &e = entries_[i];
        if (!e.closed && e.transactional == transactional)
            return &e;
    }
    return nullptr;
}

GatheringStoreCache::Entry *
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
                return &entries_[base +
                                 unsigned(std::countr_zero(free_bits))];
        }
        ztx_panic("store-cache occupancy bitmap disagrees with live "
                  "count");
    }
    // Evict the oldest non-transactional entry; transactional
    // entries cannot be written back before the transaction ends.
    if (liveTx_ == live_)
        return nullptr; // overflow: all entries are transactional
    Entry *oldest = nullptr;
    unsigned oldest_idx = 0;
    for (std::size_t w = 0; w < liveMask_.size(); ++w) {
        std::uint64_t bits = liveMask_[w] & ~txMask_[w];
        while (bits != 0) {
            const unsigned idx =
                unsigned(w * 64) + unsigned(std::countr_zero(bits));
            bits &= bits - 1;
            Entry &e = entries_[idx];
            if (!oldest || e.seq < oldest->seq) {
                oldest = &e;
                oldest_idx = idx;
            }
        }
    }
    writeBack(oldest_idx, memory);
    indexRemove(oldest_idx);
    oldest->live = false;
    stats_.counter("evictions").inc();
    return oldest;
}

void
GatheringStoreCache::writeBack(unsigned idx, mem::MainMemory &memory)
{
    Entry &e = entries_[idx];
    if (!e.dirty)
        return;
    writeBytes(idx, e.valid, memory);
    e.dirty = false;
}

void
GatheringStoreCache::writeBytes(
    unsigned idx,
    const std::array<std::uint64_t, storeCacheBlockBytes / 64> &mask,
    mem::MainMemory &memory)
{
    const Entry &e = entries_[idx];
    memory.writeMasked(e.block, e.data.data(), storeCacheBlockBytes,
                       mask.data());
    // A clean entry promises memory equals its valid bytes, and
    // these bytes may overlap another live entry of the block: mark
    // it dirty so a batch write-back in entry-array order still
    // leaves each byte with the last valid entry's value.
    const std::size_t slot = mapFind(e.block);
    for (std::uint16_t i = map_[slot].head; i != npos; i = next_[i])
        if (i != idx)
            entries_[i].dirty = true;
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
            stats_.counter("ntstg_overlap").inc();
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
                           unsigned len, bool transactional,
                           bool ntstg, mem::MainMemory &memory)
{
    while (len > 0) {
        const Addr block = storeCacheBlockAlign(addr);
        const unsigned in_block = unsigned(
            std::min<std::uint64_t>(len,
                                    block + storeCacheBlockBytes -
                                        addr));
        Entry *entry = findOpen(block, transactional);
        if (entry) {
            gathers_.inc();
        } else {
            entry = allocate(memory);
            if (!entry) {
                stats_.counter("overflows").inc();
                return false;
            }
            entry->live = true;
            entry->transactional = transactional;
            entry->closed = false;
            entry->block = block;
            entry->seq = ++seq_;
            entry->valid = {};
            entry->ntstg.reset();
            indexInsert(unsigned(entry - entries_.data()));
            allocations_.inc();
        }
        storeBlockPiece(*entry, addr, bytes, in_block, ntstg);
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
    // Apply the intersecting live entries (found via the block
    // index) oldest first so newer stores win. Each pass applies the
    // oldest entry newer than the last one applied; sequence numbers
    // are unique and start at 1, so no list is built or sorted.
    const Addr first_block = storeCacheBlockAlign(addr);
    const Addr last_block = storeCacheBlockAlign(addr + len - 1);
    for (std::uint64_t applied = 0;;) {
        const Entry *next = nullptr;
        for (Addr block = first_block;; block += storeCacheBlockBytes) {
            const std::size_t slot = mapFind(block);
            if (slot != noSlot)
                for (std::uint16_t i = map_[slot].head; i != npos;
                     i = next_[i]) {
                    const Entry &e = entries_[i];
                    if (e.seq > applied && (!next || e.seq < next->seq))
                        next = &e;
                }
            if (block == last_block)
                break;
        }
        if (!next)
            return;
        const Addr lo = std::max(addr, next->block);
        const Addr hi =
            std::min(addr + len, next->block + storeCacheBlockBytes);
        for (Addr b = lo; b < hi; ++b) {
            const std::uint64_t in_entry = b - next->block;
            if (next->validByte(in_entry))
                buf[b - addr] = next->data[in_entry];
        }
        applied = next->seq;
    }
}

void
GatheringStoreCache::closeAllEntries(mem::MainMemory &memory)
{
    if (live_ == 0)
        return;
    if (liveTx_ != 0)
        ztx_panic("TBEGIN with live transactional store-cache "
                  "entries");
    // Entry-array order; each word is a snapshot, so freeing an
    // entry (which clears its own bit) cannot disturb the walk.
    for (std::size_t w = 0; w < liveMask_.size(); ++w) {
        for (std::uint64_t bits = liveMask_[w]; bits != 0;
             bits &= bits - 1) {
            const unsigned idx =
                unsigned(w * 64) + unsigned(std::countr_zero(bits));
            // Close and start eviction; functionally the data
            // reaches memory immediately (a clean entry's already
            // has).
            writeBack(idx, memory);
            indexRemove(idx);
            entries_[idx].live = false;
        }
    }
}

void
GatheringStoreCache::commitTransaction(mem::MainMemory &memory)
{
    if (liveTx_ == 0)
        return;
    for (std::size_t w = 0; w < txMask_.size(); ++w) {
        for (std::uint64_t bits = txMask_[w]; bits != 0;
             bits &= bits - 1) {
            const unsigned idx =
                unsigned(w * 64) + unsigned(std::countr_zero(bits));
            Entry &e = entries_[idx];
            writeBack(idx, memory);
            // Become a normal (clean) entry; post-transaction stores
            // may keep gathering into it until the next TBEGIN
            // closes it, which writes it again only if they did.
            e.transactional = false;
            e.ntstg.reset();
            indexSetNonTx(idx);
        }
    }
}

void
GatheringStoreCache::abortTransaction(mem::MainMemory &memory)
{
    if (liveTx_ == 0)
        return;
    for (std::size_t w = 0; w < txMask_.size(); ++w) {
        for (std::uint64_t bits = txMask_[w]; bits != 0;
             bits &= bits - 1) {
            const unsigned idx =
                unsigned(w * 64) + unsigned(std::countr_zero(bits));
            Entry &e = entries_[idx];
            // NTSTG doublewords are committed even on abort: write
            // the valid bytes of every marked doubleword.
            if (e.ntstg.any()) {
                std::array<std::uint64_t, storeCacheBlockBytes / 64>
                    mask{};
                for (std::size_t dw = 0; dw < e.ntstg.size(); ++dw)
                    if (e.ntstg[dw])
                        mask[dw / 8] |= std::uint64_t(0xFF)
                                        << (dw % 8 * 8);
                for (std::size_t k = 0; k < mask.size(); ++k)
                    mask[k] &= e.valid[k];
                writeBytes(idx, mask, memory);
            }
            indexRemove(idx);
            e.live = false;
        }
    }
}

bool
GatheringStoreCache::hasTransactionalLine(Addr line) const
{
    if ((lineSigTx_ & (std::uint64_t(1) << lineBucket(line))) == 0)
        return false;
    if (lineAlign(line) != line)
        return false;
    for (Addr block = line; block < line + lineSizeBytes;
         block += storeCacheBlockBytes) {
        const std::size_t slot = mapFind(block);
        if (slot == noSlot)
            continue;
        for (std::uint16_t i = map_[slot].head; i != npos;
             i = next_[i])
            if (entries_[i].transactional)
                return true;
    }
    return false;
}

bool
GatheringStoreCache::hasAnyLine(Addr line) const
{
    if ((lineSigLive_ & (std::uint64_t(1) << lineBucket(line))) == 0)
        return false;
    if (lineAlign(line) != line)
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
    if ((lineSigLive_ & (std::uint64_t(1) << lineBucket(line))) == 0)
        return;
    if (lineAlign(line) != line)
        return;
    std::vector<unsigned> idxs;
    for (Addr block = line; block < line + lineSizeBytes;
         block += storeCacheBlockBytes) {
        const std::size_t slot = mapFind(block);
        if (slot == noSlot)
            continue;
        for (std::uint16_t i = map_[slot].head; i != npos;
             i = next_[i])
            if (!entries_[i].transactional)
                idxs.push_back(i);
    }
    std::sort(idxs.begin(), idxs.end());
    for (const unsigned idx : idxs) {
        writeBack(idx, memory);
        indexRemove(idx);
        entries_[idx].live = false;
    }
}

void
GatheringStoreCache::drainAll(mem::MainMemory &memory)
{
    if (live_ == liveTx_)
        return; // nothing non-transactional to drain
    for (std::size_t w = 0; w < liveMask_.size(); ++w) {
        for (std::uint64_t bits = liveMask_[w] & ~txMask_[w];
             bits != 0; bits &= bits - 1) {
            const unsigned idx =
                unsigned(w * 64) + unsigned(std::countr_zero(bits));
            writeBack(idx, memory);
            indexRemove(idx);
            entries_[idx].live = false;
        }
    }
}

std::string
GatheringStoreCache::indexCheck() const
{
    unsigned live = 0;
    unsigned live_tx = 0;
    std::array<std::uint16_t, 64> bucket_live{};
    std::array<std::uint16_t, 64> bucket_tx{};
    for (unsigned i = 0; i < capacity(); ++i) {
        const Entry &e = entries_[i];
        const std::uint64_t bit = std::uint64_t(1) << (i % 64);
        const bool in_live = (liveMask_[i / 64] & bit) != 0;
        const bool in_tx = (txMask_[i / 64] & bit) != 0;
        if (in_live != e.live)
            return "entry " + std::to_string(i) +
                   ": live flag disagrees with occupancy bitmap";
        if (in_tx != (e.live && e.transactional))
            return "entry " + std::to_string(i) +
                   ": transactional flag disagrees with tx bitmap";
        if (!e.live)
            continue;
        ++live;
        live_tx += e.transactional ? 1 : 0;
        const unsigned bucket = lineBucket(e.block);
        ++bucket_live[bucket];
        bucket_tx[bucket] += e.transactional ? 1 : 0;
        // The entry must be reachable through its block's chain.
        const std::size_t slot = mapFind(e.block);
        if (slot == noSlot)
            return "entry " + std::to_string(i) +
                   ": block missing from the index map";
        bool reachable = false;
        std::uint16_t prev = npos;
        for (std::uint16_t j = map_[slot].head; j != npos;
             j = next_[j]) {
            if (prev != npos && j <= prev)
                return "block chain out of entry-array order";
            if (entries_[j].block != map_[slot].block ||
                !entries_[j].live)
                return "block chain links a dead or foreign entry";
            if (j == i)
                reachable = true;
            prev = j;
        }
        if (!reachable)
            return "entry " + std::to_string(i) +
                   ": not reachable on its block chain";
    }
    if (live != live_)
        return "live count mismatch";
    if (live_tx != liveTx_)
        return "transactional live count mismatch";
    for (unsigned b = 0; b < 64; ++b) {
        if (bucket_live[b] != lineBucketLive_[b] ||
            bucket_tx[b] != lineBucketTx_[b])
            return "line-summary bucket count mismatch";
        const std::uint64_t bit = std::uint64_t(1) << b;
        if (((lineSigLive_ & bit) != 0) != (bucket_live[b] > 0) ||
            ((lineSigTx_ & bit) != 0) != (bucket_tx[b] > 0))
            return "line-summary signature disagrees with counts";
    }
    // Every occupied map slot must chain at least one live entry.
    for (std::size_t s = 0; s < map_.size(); ++s)
        if (map_[s].head != npos &&
            (!entries_[map_[s].head].live ||
             entries_[map_[s].head].block != map_[s].block))
            return "map slot heads a dead or foreign chain";
    return "";
}

} // namespace ztx::core
