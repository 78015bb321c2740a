#include "directory.hh"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/log.hh"

namespace ztx::mem {

void
CoherenceDirectory::configure(unsigned num_cpus)
{
    if (used_ != 0)
        ztx_panic("directory configure() after entries exist");
    if (num_cpus > maxDirectoryCpus)
        ztx_panic("directory cannot track ", num_cpus, " cpus");
    sharerWords_ = std::max(1u, (num_cpus + 63) / 64);
}

std::size_t
CoherenceDirectory::insertKey(Addr line)
{
    std::size_t i = probeStart(line);
    while (keys_[i] != emptyKey)
        i = (i + 1) & mask_;
    keys_[i] = line;
    ++used_;
    return i;
}

void
CoherenceDirectory::rehash(std::size_t new_cap)
{
    const std::size_t old_cap = capacity_;
    std::vector<Addr> old_keys = std::move(keys_);
    std::vector<CpuId> old_owner = std::move(owner_);
    std::vector<std::uint64_t> old_sharers = std::move(sharers_);

    capacity_ = new_cap;
    mask_ = new_cap - 1;
    used_ = 0;
    keys_.assign(new_cap, emptyKey);
    owner_.assign(new_cap, invalidCpu);
    sharers_.assign(new_cap * sharerWords_, 0);

    for (std::size_t i = 0; i < old_cap; ++i) {
        if (old_keys[i] == emptyKey)
            continue;
        const std::size_t j = insertKey(old_keys[i]);
        owner_[j] = old_owner[i];
        for (unsigned w = 0; w < sharerWords_; ++w)
            sharers_[j * sharerWords_ + w] =
                old_sharers[i * sharerWords_ + w];
    }
}

std::size_t
CoherenceDirectory::ensureIndex(Addr line)
{
    const std::size_t found = findIndex(line);
    if (found != npos)
        return found;
    // Grow at 3/4 load so linear probe runs stay short.
    if (capacity_ == 0)
        rehash(initialCapacity);
    else if ((used_ + 1) * 4 > capacity_ * 3)
        rehash(capacity_ * 2);
    return insertKey(line);
}

bool
CoherenceDirectory::anyHolderIn(Slot slot, CpuId lo, CpuId hi,
                                CpuId except) const
{
    if (slot.index == npos || lo >= hi)
        return false;
    const std::uint64_t *words = &sharers_[slot.index * sharerWords_];
    for (unsigned w = lo / 64; w * 64 < hi && w < sharerWords_; ++w) {
        const CpuId base = CpuId(w * 64);
        std::uint64_t bits = words[w];
        if (lo > base)
            bits &= ~std::uint64_t(0) << (lo - base);
        if (hi - base < 64)
            bits &= (std::uint64_t(1) << (hi - base)) - 1;
        if (except / 64 == w)
            bits &= ~(std::uint64_t(1) << (except % 64));
        if (bits)
            return true;
    }
    return false;
}

CpuId
CoherenceDirectory::firstHolder(Addr line) const
{
    const std::size_t i = findIndex(line);
    if (i == npos)
        return invalidCpu;
    for (unsigned w = 0; w < sharerWords_; ++w)
        if (const std::uint64_t word = sharers_[i * sharerWords_ + w])
            return CpuId(w * 64 + unsigned(std::countr_zero(word)));
    return invalidCpu;
}

void
CoherenceDirectory::setExclusive(Addr line, CpuId cpu)
{
    if (cpu >= sharerWords_ * 64)
        ztx_panic("directory cannot track cpu ", cpu);
    const std::size_t i = ensureIndex(line);
    owner_[i] = cpu;
    for (unsigned w = 0; w < sharerWords_; ++w)
        sharers_[i * sharerWords_ + w] =
            w == cpu / 64 ? std::uint64_t(1) << (cpu % 64) : 0;
}

void
CoherenceDirectory::addSharer(Addr line, CpuId cpu)
{
    if (cpu >= sharerWords_ * 64)
        ztx_panic("directory cannot track cpu ", cpu);
    const std::size_t i = ensureIndex(line);
    const CpuId owner = owner_[i];
    if (owner != invalidCpu && owner != cpu)
        ztx_panic("addSharer while another CPU owns the line");
    owner_[i] = invalidCpu;
    sharers_[i * sharerWords_ + cpu / 64] |= std::uint64_t(1)
                                             << (cpu % 64);
}

void
CoherenceDirectory::demoteOwner(Addr line)
{
    const std::size_t i = ensureIndex(line);
    const CpuId owner = owner_[i];
    if (owner == invalidCpu)
        ztx_panic("demoteOwner on unowned line");
    sharers_[i * sharerWords_ + owner / 64] |= std::uint64_t(1)
                                               << (owner % 64);
    owner_[i] = invalidCpu;
}

void
CoherenceDirectory::remove(Addr line, CpuId cpu)
{
    const std::size_t i = findIndex(line);
    if (i == npos)
        return;
    if (owner_[i] == cpu)
        owner_[i] = invalidCpu;
    if (cpu < sharerWords_ * 64)
        sharers_[i * sharerWords_ + cpu / 64] &=
            ~(std::uint64_t(1) << (cpu % 64));
}

std::size_t
CoherenceDirectory::trackedLines() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < capacity_; ++i) {
        if (keys_[i] == emptyKey)
            continue;
        if (owner_[i] != invalidCpu) {
            ++n;
            continue;
        }
        for (unsigned w = 0; w < sharerWords_; ++w) {
            if (sharers_[i * sharerWords_ + w] != 0) {
                ++n;
                break;
            }
        }
    }
    return n;
}

std::string
CoherenceDirectory::ownershipCheck() const
{
    for (std::size_t i = 0; i < capacity_; ++i) {
        const CpuId owner = owner_[i];
        if (keys_[i] == emptyKey || owner == invalidCpu)
            continue;
        for (unsigned w = 0; w < sharerWords_; ++w) {
            const std::uint64_t expect =
                w == owner / 64 ? std::uint64_t(1) << (owner % 64) : 0;
            if (sharers_[i * sharerWords_ + w] != expect) {
                std::ostringstream os;
                os << "owned line 0x" << std::hex << keys_[i]
                   << std::dec << " (owner cpu " << owner
                   << ") has sharer bits other than the owner's";
                return os.str();
            }
        }
    }
    return "";
}

} // namespace ztx::mem
