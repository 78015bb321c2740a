/**
 * @file
 * Spin replay: the Machine's detection, recording and arithmetic
 * replay of CPUs that wait in a fixed-point spin loop (DESIGN.md §5b,
 * "Replayed spinners").
 */

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "common/trace.hh"
#include "sim/machine.hh"

namespace ztx::sim {

namespace {

/** Ready time of a replaying CPU with no wake step: never picked. */
constexpr Cycles noWakeAt = ReadyTree::never;

} // namespace

bool
Machine::spinAllowed() const
{
    // The injector, the channel subsystem and the watchdog act on
    // every step; an Exec trace prints every step.
    return cfg_.spinFastForward && !injector_ && !io_ &&
           cfg_.watchdogCycles == 0 &&
           !trace::enabled(trace::Category::Exec);
}

void
Machine::spinReset()
{
    // The host may have changed memory, registers or PER controls
    // since the last run, so no profile carries over.
    spin_.resize(numCpus());
    spinActive_.assign(numCpus(), 0);
    for (SpinTrack &tr : spin_) {
        tr.loopPc = ~Addr(0);
        tr.arrivals = 0;
        tr.recording = false;
        tr.profile.clear();
        tr.replaying = false;
        tr.woken = false;
    }
    spinReplaying_ = 0;
    spinWoken_.clear();
}

void
Machine::spinRecordStep(CpuId id)
{
    SpinTrack &tr = spin_[id];
    const core::Cpu &cpu = *cpus_[id];
    Addr line = 0;
    const core::SpinStep kind = cpu.spinStep(line);
    const bool interrupt_due = cfg_.externalInterruptPeriod != 0 &&
                               now_ >= nextInterrupt_[id];
    if (kind == core::SpinStep::None || interrupt_due ||
        !cpu.spinQuiet() ||
        (kind == core::SpinStep::Load && !hierarchy_.inL1(id, line)) ||
        !tr.pending.push(cpu.spinState(), kind == core::SpinStep::Load,
                         line)) {
        tr.recording = false;
        spinActive_[id] = tr.profile.size() != 0;
    }
}

void
Machine::spinAfterStep(CpuId id, Addr ia0)
{
    SpinTrack &tr = spin_[id];
    const core::Cpu &cpu = *cpus_[id];
    const Addr ia = cpu.psw().ia;

    if (tr.recording) {
        tr.pending.setLastCost(readyAt_[id] - now_);
        if (ia != tr.pending.loopPc() ||
            !(cpu.spinState() == tr.pending.step(0).before))
            return;
        // Back in the state the recording started from: the profile
        // is one period of the loop (one iteration, or a few while
        // the dispatch credit cycles).
        tr.recording = false;
        if (cpu.spinQuiet() && tr.pending.seal()) {
            std::swap(tr.profile, tr.pending);
            spinEnter(id, 0, std::int64_t(readyAt_[id]));
            return;
        }
        spinActive_[id] = tr.profile.size() != 0;
        return;
    }

    // Re-entry: back in a profiled state, e.g. after the real load
    // that refetched a lost lock line.
    if (tr.profile.spansPc(ia) && cpu.spinQuiet()) {
        const std::size_t at = tr.profile.indexOf(cpu.spinState());
        if (at != SpinProfile::npos) {
            const Cycles offset = tr.profile.timeOf(0, at);
            spinEnter(id, at,
                      std::int64_t(readyAt_[id]) - std::int64_t(offset));
            return;
        }
    }

    if (ia <= ia0 && cpu.spinQuiet() && cpu.isBranchAt(ia0))
        spinArrive(id, ia);
}

void
Machine::spinArrive(CpuId id, Addr ia)
{
    SpinTrack &tr = spin_[id];
    const std::uint64_t state = cpu(id).spinFingerprint();
    if (tr.loopPc != ia) {
        tr.loopPc = ia;
        tr.arrivals = 0;
    }
    const unsigned kept =
        std::min<unsigned>(tr.arrivals, unsigned(tr.atLoopPc.size()));
    for (unsigned i = 0; i < kept; ++i) {
        if (tr.atLoopPc[i] == state) {
            tr.recording = true;
            spinActive_[id] = 1;
            tr.pending.clear();
            tr.arrivals = 0;
            return;
        }
    }
    tr.atLoopPc[tr.arrivals % tr.atLoopPc.size()] = state;
    ++tr.arrivals;
}

void
Machine::spinEnter(CpuId id, std::uint64_t next, std::int64_t origin)
{
    // Solo parking rewrites ready times, so nobody replays under it.
    if (soloCpu_ != invalidCpu)
        return;
    SpinTrack &tr = spin_[id];
    // The loads read the memory image: each line must be L1-resident
    // with no store-cache entry of the CPU's own over it.
    const core::Cpu &cpu = *cpus_[id];
    for (const Addr line : tr.profile.lines())
        if (!hierarchy_.inL1(id, line) ||
            cpu.storeCache().hasAnyLine(line))
            return;
    tr.next = next;
    tr.origin = origin;
    tr.wake = spinInterruptStep(id);
    if (tr.wake == next)
        return;
    tr.replaying = true;
    ++spinReplaying_;
    setReady(id, tr.wake == noWake ? noWakeAt
                                   : tr.profile.timeOf(origin, tr.wake));
}

std::uint64_t
Machine::spinWakeStep(CpuId id) const
{
    const SpinTrack &tr = spin_[id];
    const SpinProfile &prof = tr.profile;
    std::uint64_t wake = noWake;
    for (std::uint64_t g = tr.next; g < tr.next + prof.size(); ++g) {
        const SpinProfile::Step &s = prof.step(g);
        if (s.load && !hierarchy_.inL1(id, s.line)) {
            wake = g;
            break;
        }
    }
    return std::min(wake, spinInterruptStep(id));
}

std::uint64_t
Machine::spinInterruptStep(CpuId id) const
{
    if (cfg_.externalInterruptPeriod == 0)
        return noWake;
    const SpinTrack &tr = spin_[id];
    return std::max(tr.next, tr.profile.stepsBefore(tr.origin,
                                                    nextInterrupt_[id]));
}

void
Machine::spinAdvance(CpuId id, std::uint64_t to)
{
    SpinTrack &tr = spin_[id];
    if (to <= tr.next)
        return;
    const SpinProfile &prof = tr.profile;
    const std::uint64_t steps = to - tr.next;
    const std::uint64_t loads =
        prof.loadsBefore(to) - prof.loadsBefore(tr.next);
    stepCounter_.inc(steps);
    cpus_[id]->retireReplayed(steps);
    if (loads != 0) {
        // The last iteration's worth of loads leaves each line's LRU
        // tick where the skipped hits would have.
        Addr tail[SpinProfile::maxSteps];
        std::size_t len = 0;
        const std::uint64_t from =
            to - std::min<std::uint64_t>(steps, prof.size());
        for (std::uint64_t g = from; g < to; ++g)
            if (prof.step(g).load)
                tail[len++] = prof.step(g).line;
        hierarchy_.replayL1Hits(id, loads, tail, len);
    }
    replayedSteps_ += steps;
    tr.next = to;
}

void
Machine::spinCatchUp(CpuId id, Cycles limit)
{
    const SpinTrack &tr = spin_[id];
    spinAdvance(id, std::min(tr.wake,
                             tr.profile.stepsBefore(tr.origin, limit)));
}

void
Machine::spinLeave(CpuId id)
{
    SpinTrack &tr = spin_[id];
    tr.replaying = false;
    --spinReplaying_;
    cpus_[id]->restoreSpinState(tr.profile.step(tr.next).before);
    setReady(id, tr.profile.timeOf(tr.origin, tr.next));
}

void
Machine::spinCatchUpToStep(CpuId id)
{
    // Replayed steps before the key (now_, stepping_): at now_ itself
    // only those of a lower-numbered CPU.
    spinCatchUp(id, now_ + (id < stepping_ ? 1 : 0));
    if (!spin_[id].woken) {
        spin_[id].woken = true;
        spinWoken_.push_back(id);
    }
}

void
Machine::noteXi(CpuId cpu)
{
    // The key comes from the step being taken, not ctx.requester:
    // the LRU XI of an L3/L4 back-invalidation has no requester.
    if (spinReplaying_ != 0 && spin_[cpu].replaying)
        spinCatchUpToStep(cpu);
}

void
Machine::spinWakeAll()
{
    for (CpuId c = 0; c < numCpus(); ++c) {
        if (spin_[c].replaying) {
            spinCatchUpToStep(c);
            spinLeave(c);
        }
    }
}

void
Machine::spinSettle()
{
    for (const CpuId c : spinWoken_) {
        SpinTrack &tr = spin_[c];
        tr.woken = false;
        // A CPU that left replay already holds its key (spinLeave).
        if (!tr.replaying)
            continue;
        // The XI has taken its line by now: wake at the next load of
        // a line the CPU no longer holds.
        const std::uint64_t wake = spinWakeStep(c);
        if (wake == tr.wake)
            continue;
        tr.wake = wake;
        setReady(c, wake == noWake ? noWakeAt
                                   : tr.profile.timeOf(tr.origin, wake));
    }
    spinWoken_.clear();
}

void
Machine::spinFinish(bool bounded, Cycles end_cycle)
{
    if (spinReplaying_ == 0)
        return;
    if (!bounded) {
        // No CPU is ready, with CPUs left that can only spin: without
        // replay this run would never return.
        std::ostringstream who;
        for (CpuId c = 0; c < numCpus(); ++c)
            if (spin_[c].replaying)
                who << " cpu" << c << "@0x" << std::hex
                    << spin_[c].profile.loopPc() << std::dec;
        ztx_fatal("run() cannot finish: every live CPU spins forever "
                  "in a loop no other CPU can end:",
                  who.str());
    }
    now_ = end_cycle;
    for (CpuId c = 0; c < numCpus(); ++c) {
        if (!spin_[c].replaying)
            continue;
        spinCatchUp(c, end_cycle);
        spinLeave(c);
    }
}

} // namespace ztx::sim
