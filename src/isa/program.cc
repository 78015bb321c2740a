#include "program.hh"

#include "common/log.hh"

namespace ztx::isa {

void
Program::buildIndex()
{
    slotAt_.clear();
    if (slots_.empty())
        return;
    const Addr base = slots_.front().addr;
    const Slot &last = slots_.back();
    slotAt_.assign((last.addr + last.length - base) / 2, noSlot);
    for (std::size_t i = 0; i < slots_.size(); ++i)
        slotAt_[(slots_[i].addr - base) / 2] = std::uint32_t(i);
}

const Program::Slot *
Program::fetch(Addr addr) const
{
    if (slotAt_.empty())
        return nullptr;
    const Addr off = addr - slots_.front().addr;
    // Below the base wraps to a huge offset and fails the bound.
    if ((off & 1) != 0 || off / 2 >= slotAt_.size())
        return nullptr;
    const std::uint32_t idx = slotAt_[off / 2];
    return idx == noSlot ? nullptr : &slots_[idx];
}

Addr
Program::entry() const
{
    if (slots_.empty())
        ztx_fatal("fetch from empty program");
    return slots_.front().addr;
}

Addr
Program::labelAddr(const std::string &name) const
{
    const auto it = labels_.find(name);
    if (it == labels_.end())
        ztx_fatal("unknown label '", name, "'");
    return it->second;
}

} // namespace ztx::isa
