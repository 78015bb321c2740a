/**
 * @file
 * One recorded spin-loop iteration and the arithmetic that replays it
 * (DESIGN.md §5b, "Replayed spinners").
 *
 * A profile holds, per step of the iteration, the CPU's state before
 * the step, the step's scheduler cost, and the line a load step
 * reads. Replayed steps are numbered from 0 on an origin cycle: step
 * g is profile step g % size() of iteration g / size(), and runs at
 * origin + (g / size()) * (cycles per iteration) + the costs of the
 * profile steps before it. The origin is signed because a CPU may
 * re-enter replay partway through an iteration early in a run.
 */

#ifndef ZTX_SIM_SPIN_PROFILE_HH
#define ZTX_SIM_SPIN_PROFILE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/cpu.hh"

namespace ztx::sim {

/** A recorded spin-loop iteration. */
class SpinProfile
{
  public:
    /** One step of the iteration. */
    struct Step
    {
        core::SpinState before;
        Cycles cost = 0;
        bool load = false;
        Addr line = 0;
    };

    /** Longest iteration recorded, in steps. */
    static constexpr std::size_t maxSteps = 64;

    /** "No such step" (indexOf). */
    static constexpr std::size_t npos = ~std::size_t(0);

    /** Drop every step. */
    void clear();

    /**
     * Append the step about to run from @p before.
     * @return False when the profile is already maxSteps long.
     */
    bool push(const core::SpinState &before, bool load, Addr line);

    /** Set the cost of the last pushed step. */
    void setLastCost(Cycles cost) { steps_.back().cost = cost; }

    /**
     * Close the iteration: build the prefix sums and the line set.
     * @return False when the iteration takes no cycles.
     */
    bool seal();

    /** Steps per iteration. */
    std::size_t size() const { return steps_.size(); }

    /** The profile step replayed step @p g runs. */
    const Step &
    step(std::uint64_t g) const
    {
        return steps_[std::size_t(g % steps_.size())];
    }

    /** Cycle at which replayed step @p g runs. */
    Cycles timeOf(std::int64_t origin, std::uint64_t g) const;

    /**
     * Replayed steps that run before cycle @p limit, i.e. the index
     * of the first step at or after it. @p limit must be below 2^63.
     */
    std::uint64_t stepsBefore(std::int64_t origin, Cycles limit) const;

    /** Load steps among replayed steps [0, @p g). */
    std::uint64_t loadsBefore(std::uint64_t g) const;

    /** The distinct lines the iteration loads. */
    const std::vector<Addr> &lines() const { return lines_; }

    /** PC of the iteration's first step (the loop target). */
    Addr loopPc() const { return steps_.front().before.ia; }

    /** True if @p ia lies in [lowest PC, highest PC]; false if empty. */
    bool
    spansPc(Addr ia) const
    {
        return ia >= pcLo_ && ia <= pcHi_;
    }

    /** Index of the step whose before-state is @p state, or npos. */
    std::size_t indexOf(const core::SpinState &state) const;

  private:
    /** PC range of the steps; empty (lo > hi) until seal(). */
    Addr pcLo_ = ~Addr(0);
    Addr pcHi_ = 0;
    std::vector<Step> steps_;
    /** offset_[i]: cycles from an iteration's start to step i. */
    std::vector<Cycles> offset_;
    /** loads_[i]: load steps among the first i steps. */
    std::vector<std::uint64_t> loads_;
    std::vector<Addr> lines_;
    Cycles period_ = 0;
};

} // namespace ztx::sim

#endif // ZTX_SIM_SPIN_PROFILE_HH
