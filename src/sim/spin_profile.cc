#include "spin_profile.hh"

#include <algorithm>

namespace ztx::sim {

void
SpinProfile::clear()
{
    steps_.clear();
    offset_.clear();
    loads_.clear();
    lines_.clear();
    period_ = 0;
    pcLo_ = ~Addr(0);
    pcHi_ = 0;
}

bool
SpinProfile::push(const core::SpinState &before, bool load, Addr line)
{
    if (steps_.size() == maxSteps)
        return false;
    steps_.push_back({before, 0, load, line});
    return true;
}

bool
SpinProfile::seal()
{
    offset_.assign(1, 0);
    loads_.assign(1, 0);
    lines_.clear();
    pcLo_ = pcHi_ = steps_.front().before.ia;
    for (const Step &s : steps_) {
        offset_.push_back(offset_.back() + s.cost);
        loads_.push_back(loads_.back() + (s.load ? 1 : 0));
        if (s.load &&
            std::find(lines_.begin(), lines_.end(), s.line) == lines_.end())
            lines_.push_back(s.line);
        pcLo_ = std::min(pcLo_, s.before.ia);
        pcHi_ = std::max(pcHi_, s.before.ia);
    }
    period_ = offset_.back();
    return period_ != 0;
}

Cycles
SpinProfile::timeOf(std::int64_t origin, std::uint64_t g) const
{
    const std::size_t n = steps_.size();
    return Cycles(origin) + (g / n) * period_ + offset_[g % n];
}

std::uint64_t
SpinProfile::stepsBefore(std::int64_t origin, Cycles limit) const
{
    const std::int64_t span = std::int64_t(limit) - origin;
    if (span <= 0)
        return 0;
    // Iterations before `last` run whole before the limit; in
    // iteration `last` (1..period cycles left) the steps that start
    // before it.
    const std::uint64_t last = std::uint64_t(span - 1) / period_;
    const Cycles left = Cycles(span) - last * period_;
    const std::size_t n = steps_.size();
    const auto in_last = std::lower_bound(offset_.begin(),
                                          offset_.begin() + n, left) -
                         offset_.begin();
    return last * n + std::uint64_t(in_last);
}

std::uint64_t
SpinProfile::loadsBefore(std::uint64_t g) const
{
    const std::size_t n = steps_.size();
    return (g / n) * loads_[n] + loads_[g % n];
}

std::size_t
SpinProfile::indexOf(const core::SpinState &state) const
{
    for (std::size_t i = 0; i < steps_.size(); ++i)
        if (steps_[i].before.ia == state.ia && steps_[i].before == state)
            return i;
    return npos;
}

} // namespace ztx::sim
