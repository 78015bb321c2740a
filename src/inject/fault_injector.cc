#include "fault_injector.hh"

#include <algorithm>
#include <tuple>

#include "common/log.hh"
#include "core/config.hh"
#include "core/cpu.hh"
#include "mem/hierarchy.hh"

namespace ztx::inject {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::SpuriousAbort: return "spurious_abort";
      case FaultKind::XiStorm: return "xi_storm";
      case FaultKind::CapacitySqueeze: return "capacity_squeeze";
      case FaultKind::InterruptStorm: return "interrupt_storm";
      case FaultKind::DelayedXi: return "delayed_xi";
      case FaultKind::TargetedConflict: return "targeted_conflict";
      case FaultKind::PoisonLine: return "poison_line";
    }
    return "?";
}

const char *
triggerKindName(TriggerKind kind)
{
    switch (kind) {
      case TriggerKind::AtCycle: return "at_cycle";
      case TriggerKind::OnAbort: return "on_abort";
      case TriggerKind::OnFootprint: return "on_footprint";
      case TriggerKind::AfterStep: return "after_step";
    }
    return "?";
}

const char *
stepAssertName(StepAssert check)
{
    switch (check) {
      case StepAssert::None: return "none";
      case StepAssert::TargetInTx: return "target_in_tx";
      case StepAssert::TargetNotInTx: return "target_not_in_tx";
      case StepAssert::LineInTargetFootprint:
        return "line_in_target_footprint";
    }
    return "?";
}

Json
faultPlanJson(const FaultPlan &plan)
{
    Json p = Json::object();
    p["spurious_abort_rate"] = plan.spuriousAbortRate;
    p["xi_storm_rate"] = plan.xiStormRate;
    p["capacity_squeeze_rate"] = plan.capacitySqueezeRate;
    p["interrupt_storm_rate"] = plan.interruptStormRate;
    p["delayed_xi_rate"] = plan.delayedXiRate;
    p["targeted_conflict_rate"] = plan.targetedConflictRate;
    p["poison_rate"] = plan.poisonRate;
    p["xi_storm_burst"] = FaultPlan::xiStormBurst;
    p["squeeze_l1_ways"] = FaultPlan::squeezeL1Ways;
    p["squeeze_l2_ways"] = FaultPlan::squeezeL2Ways;
    p["squeeze_duration"] = std::uint64_t(plan.squeezeDuration);
    p["interrupt_burst"] = FaultPlan::interruptBurst;
    p["xi_delay_max"] = std::uint64_t(plan.xiDelayMax);
    p["targeted_line"] = std::uint64_t(plan.targetedLine);
    p["seed"] = plan.seed;
    // Always empty: scenario steps are the only cycle-pinned faults.
    // The key stays so archived reports, chaos records, json_check
    // and the benchmark's digests keep one document shape.
    p["schedule"] = Json::array();
    Json scen = Json::array();
    for (const auto &st : plan.scenario) {
        Json s = Json::object();
        s["trigger"] = triggerKindName(st.trigger);
        s["at"] = std::uint64_t(st.at);
        s["period"] = std::uint64_t(st.period);
        s["repeat"] = std::uint64_t(st.repeat);
        s["watch"] = st.watch == invalidCpu ? std::int64_t(-1)
                                            : std::int64_t(st.watch);
        s["count"] = st.count;
        s["line"] = std::uint64_t(st.line);
        s["after"] = std::uint64_t(st.after);
        s["kind"] = faultKindName(st.kind);
        s["target"] = st.target == invalidCpu ? std::int64_t(-1)
                                              : std::int64_t(st.target);
        s["poison_memory"] = st.poisonMemory;
        s["check"] = stepAssertName(st.check);
        scen.push(std::move(s));
    }
    p["scenario"] = std::move(scen);
    return p;
}

/** The counter of each FaultKind's fires, in enumerator order. */
constexpr const char *firedCounterName[faultKindCount] = {
    "spurious_abort.fired", "xi_storm.fired", "squeeze.fired",
    "interrupt_storm.fired", "xi_delay.fired",
    "targeted_conflict.fired", "poison_line.fired",
};

FaultInjector::FaultInjector(const FaultPlan &plan,
                             std::uint64_t machine_seed,
                             mem::Hierarchy &hier,
                             const core::CpuEnv &env)
    : plan_(plan), hier_(hier), env_(env),
      baseSeed_(plan.seed
                    ? plan.seed
                    : machine_seed * 0xD1B54A32D192ED03ULL + 0x5C),
      rng_(plan.seed ? plan.seed
                     : machine_seed * 0xD1B54A32D192ED03ULL + 0x5C)
{
    stats_.declare("", fired_,
                   [](std::size_t k) { return firedCounterName[k]; });
    if (plan_.xiDelayMax == 0)
        plan_.xiDelayMax = 1;
    // Scenario steps: normalize degenerate shapes, reject plans
    // whose dependency graph or repetition can never be honoured.
    for (std::size_t i = 0; i < plan_.scenario.size(); ++i) {
        ScenarioStep &s = plan_.scenario[i];
        if (s.repeat == 0)
            s.repeat = 1;
        if (s.count == 0)
            s.count = 1;
        if (s.repeat > 1 && (s.trigger != TriggerKind::AtCycle ||
                             s.period == 0))
            ztx_fatal("scenario step ", i, ": repeat > 1 needs an "
                      "AtCycle trigger with a nonzero period");
        if (s.trigger == TriggerKind::AfterStep && s.after >= i)
            ztx_fatal("scenario step ", i, ": `after` must reference "
                      "an earlier step");
    }
    scen_.resize(plan_.scenario.size());
}

void
FaultInjector::attachCpu(core::Cpu &cpu)
{
    if (cpu.id() != cpus_.size())
        ztx_fatal("FaultInjector: CPUs must attach in id order");
    const std::uint64_t id = cpu.id();
    cpus_.push_back(&cpu);
    squeezeUntil_.push_back(0);
    // Disjoint per-CPU streams: draws on CPU i depend only on CPU
    // i's own step/fault sequence, never on global interleaving.
    cpuRng_.emplace_back(baseSeed_ ^
                         ((id + 1) * 0x9E3779B97F4A7C15ULL));
    stormRng_.emplace_back(baseSeed_ +
                           (id + 1) * 0xBF58476D1CE4E5B9ULL);
    delayRng_.emplace_back(baseSeed_ ^
                           ((id + 1) * 0x94D049BB133111EBULL));
    poisonRng_.emplace_back(baseSeed_ +
                            (id + 1) * 0xD6E8FEB86659FD93ULL);
    lastAborts_.push_back(0);
    recent_.emplace_back();
}

void
FaultInjector::beforeStep(CpuId id, Cycles now)
{
    // Expire this CPU's capacity squeeze.
    if (squeezeUntil_[id] != 0 && now >= squeezeUntil_[id]) {
        hier_.squeezeCapacity(id, 0, 0);
        squeezeUntil_[id] = 0;
        squeezeRestored_.inc();
    }

    // Probabilistic faults against the CPU about to step: one draw
    // per *enabled* kind from the CPU's own stream, so a disabled
    // kind costs nothing and a given (plan, seed) pair replays
    // bit-identically.
    Rng &r = cpuRng_[id];
    if (plan_.spuriousAbortRate > 0 &&
        r.nextBool(plan_.spuriousAbortRate))
        apply(FaultKind::SpuriousAbort, id, now);
    if (plan_.xiStormRate > 0 && r.nextBool(plan_.xiStormRate))
        apply(FaultKind::XiStorm, id, now);
    if (plan_.capacitySqueezeRate > 0 &&
        r.nextBool(plan_.capacitySqueezeRate))
        apply(FaultKind::CapacitySqueeze, id, now);
    if (plan_.interruptStormRate > 0 &&
        r.nextBool(plan_.interruptStormRate))
        apply(FaultKind::InterruptStorm, id, now);
    if (plan_.targetedConflictRate > 0 &&
        r.nextBool(plan_.targetedConflictRate))
        apply(FaultKind::TargetedConflict, invalidCpu, now,
              plan_.targetedLine);
    if (plan_.poisonRate > 0 && r.nextBool(plan_.poisonRate))
        apply(FaultKind::PoisonLine, id, now);

    evaluateScenario(now);
}

void
FaultInjector::evaluateScenario(Cycles now)
{
    if (plan_.scenario.empty())
        return;

    // Which CPU aborted since the last evaluation (lowest id wins):
    // the "aborting CPU" an untargeted OnAbort step resolves to.
    CpuId aborted = invalidCpu;
    std::uint64_t total_aborts = 0;
    for (CpuId id = 0; id < CpuId(cpus_.size()); ++id) {
        const std::uint64_t a = cpus_[id]->abortsTotal();
        if (aborted == invalidCpu && a > lastAborts_[id])
            aborted = id;
        lastAborts_[id] = a;
        total_aborts += a;
    }

    for (std::size_t i = 0; i < plan_.scenario.size(); ++i) {
        const ScenarioStep &s = plan_.scenario[i];
        ScenarioState &st = scen_[i];
        if (st.done)
            continue;

        bool fire = false;
        switch (s.trigger) {
          case TriggerKind::AtCycle:
            // k-th fire is due at `at + k * period`; at most one
            // fire per evaluation (catch-up happens next round).
            fire = now >= s.at + st.fires * s.period;
            break;
          case TriggerKind::OnAbort: {
            if (s.watch != invalidCpu && s.watch >= cpus_.size())
                ztx_fatal("scenario step ", i, " watches CPU ",
                          s.watch, " but only ", cpus_.size(),
                          " attached");
            const std::uint64_t seen = s.watch == invalidCpu
                                           ? total_aborts
                                           : lastAborts_[s.watch];
            fire = seen >= s.count;
            break;
          }
          case TriggerKind::OnFootprint:
            for (CpuId id = 0; id < CpuId(cpus_.size()); ++id)
                if (hier_.inTxFootprint(id, s.line)) {
                    fire = true;
                    break;
                }
            break;
          case TriggerKind::AfterStep:
            fire = scen_[s.after].fires > 0 &&
                   now >= scen_[s.after].lastFire + s.at;
            break;
        }
        if (!fire)
            continue;

        // Resolve an untargeted step from machine state: OnAbort
        // takes the aborting CPU; everything else the lowest-id CPU
        // holding the step's line in its footprint; fallback CPU 0.
        CpuId target = s.target;
        if (target == invalidCpu) {
            if (s.trigger == TriggerKind::OnAbort &&
                aborted != invalidCpu) {
                target = aborted;
            } else {
                for (CpuId id = 0; id < CpuId(cpus_.size()); ++id)
                    if (hier_.inTxFootprint(id, s.line)) {
                        target = id;
                        break;
                    }
                if (target == invalidCpu)
                    target = 0;
            }
        }
        if (target >= cpus_.size())
            ztx_fatal("scenario step ", i, " targets CPU ", target,
                      " but only ", cpus_.size(), " attached");

        bool ok = true;
        switch (s.check) {
          case StepAssert::None:
            break;
          case StepAssert::TargetInTx:
            ok = cpus_[target]->inTx();
            break;
          case StepAssert::TargetNotInTx:
            ok = !cpus_[target]->inTx();
            break;
          case StepAssert::LineInTargetFootprint:
            ok = hier_.inTxFootprint(target, s.line);
            break;
        }
        if (!ok) {
            scenarioAssertFailed_.inc();
            ztx_warn("scenario step ", i, " assertion ",
                     stepAssertName(s.check), " failed at cycle ",
                     now, " (target cpu ", target, ")");
        }

        scenarioFired_.inc();
        ++st.fires;
        st.lastFire = now;
        if (s.trigger != TriggerKind::AtCycle ||
            st.fires >= s.repeat)
            st.done = true;

        apply(s.kind, target, now, s.line, s.poisonMemory);
    }
}

void
FaultInjector::recordFire(FaultKind kind, CpuId target, Cycles now,
                          Addr line)
{
    fired_[std::size_t(kind)].inc();
    RecentRing &ring = recent_.at(target);
    ring.slots[ring.n % recentDepth] = {now, kind, target, line,
                                        ring.n};
    ++ring.n;
}

void
FaultInjector::apply(FaultKind kind, CpuId target, Cycles now,
                     Addr line, bool poison_memory)
{
    switch (kind) {
      case FaultKind::SpuriousAbort: {
        core::Cpu &cpu = *cpus_.at(target);
        if (!cpu.inTx())
            return; // nothing to abort
        recordFire(kind, target, now, 0);
        cpu.injectSpuriousAbort();
        return;
      }

      case FaultKind::XiStorm: {
        if (target == env_.soloHolder()) {
            // Broadcast-stop stopped "all conflicting work"; an
            // adversary is conflicting work too.
            xiStormSuppressedSolo_.inc();
            return;
        }
        const std::vector<Addr> lines =
            hier_.txFootprintLines(target);
        if (lines.empty())
            return; // no transactional footprint to attack
        recordFire(kind, target, now, 0);
        for (unsigned i = 0; i < FaultPlan::xiStormBurst; ++i) {
            // Line picks come from the target's own stream so the
            // sequence survives reordering of other CPUs' storms.
            const Addr line =
                lines[stormRng_[target].nextBounded(lines.size())];
            if (hier_.injectAdversarialXi(target, line))
                xiStormLinesTaken_.inc();
            else
                xiStormLinesDefended_.inc();
        }
        return;
      }

      case FaultKind::CapacitySqueeze:
        recordFire(kind, target, now, 0);
        hier_.squeezeCapacity(target, FaultPlan::squeezeL1Ways,
                              FaultPlan::squeezeL2Ways);
        squeezeUntil_[target] = now + plan_.squeezeDuration;
        return;

      case FaultKind::InterruptStorm:
        recordFire(kind, target, now, 0);
        for (unsigned i = 0; i < FaultPlan::interruptBurst; ++i)
            cpus_.at(target)->deliverExternalInterrupt();
        return;

      case FaultKind::DelayedXi:
        // Delay is drawn per XI in xiDelay(); a scenario step of
        // this kind is a plan-documentation no-op.
        return;

      case FaultKind::TargetedConflict: {
        const Addr l = lineAlign(line);
        CpuId victim = target;
        if (victim == invalidCpu) {
            // The owner, else the lowest-numbered sharer.
            victim = hier_.directory().firstHolder(l);
        }
        if (victim == invalidCpu || victim >= cpus_.size()) {
            // Nobody caches the line; a conflict XI has no victim.
            conflictNoHolder_.inc();
            return;
        }
        if (victim == env_.soloHolder()) {
            // Same fairness rule as XI storms: broadcast-stop
            // stopped all conflicting work, the adversary included.
            conflictSolo_.inc();
            return;
        }
        recordFire(kind, victim, now, l);
        if (hier_.injectAdversarialXi(victim, l))
            conflictTaken_.inc();
        else
            conflictDefended_.inc();
        return;
      }

      case FaultKind::PoisonLine: {
        Addr victim_line = lineAlign(line);
        if (victim_line == 0) {
            // Rate-driven: poison one line of the target's live tx
            // footprint (cached image only — always recoverable).
            if (target == env_.soloHolder()) {
                poisonSuppressedSolo_.inc();
                return;
            }
            const std::vector<Addr> lines =
                hier_.txFootprintLines(target);
            if (lines.empty()) {
                poisonSkippedIdle_.inc();
                return;
            }
            victim_line = lines[poisonRng_[target].nextBounded(
                lines.size())];
            poison_memory = false;
        }
        recordFire(kind, target, now, victim_line);
        hier_.poisonLine(victim_line, poison_memory);
        return;
      }
    }
}

Json
FaultInjector::firedCountsJson() const
{
    Json j = Json::object();
    for (std::size_t k = 0; k < faultKindCount; ++k)
        j[faultKindName(FaultKind(k))] = fired_[k].value();
    return j;
}

Json
FaultInjector::recentFiresJson() const
{
    std::vector<FiredFault> all;
    for (const RecentRing &r : recent_) {
        const std::uint64_t kept =
            std::min<std::uint64_t>(r.n, recentDepth);
        for (std::uint64_t i = 0; i < kept; ++i)
            all.push_back(r.slots[(r.n - kept + i) % recentDepth]);
    }
    std::sort(all.begin(), all.end(),
              [](const FiredFault &a, const FiredFault &b) {
                  return std::tie(a.at, a.target, a.seq) <
                         std::tie(b.at, b.target, b.seq);
              });
    if (all.size() > recentDepth)
        all.erase(all.begin(),
                  all.end() - std::ptrdiff_t(recentDepth));
    Json arr = Json::array();
    for (const FiredFault &f : all) {
        Json e = Json::object();
        e["at"] = std::uint64_t(f.at);
        e["kind"] = faultKindName(f.kind);
        e["cpu"] = std::int64_t(f.target);
        e["line"] = std::uint64_t(f.line);
        arr.push(std::move(e));
    }
    return arr;
}

Cycles
FaultInjector::xiDelay(mem::XiKind kind, CpuId target,
                       CpuId requester)
{
    (void)kind;
    (void)requester;
    if (plan_.delayedXiRate <= 0)
        return 0;
    // Per-target streams: the draw is a function of the target's
    // own XI sequence. Unattached fabric agents (the channel
    // subsystem) use the shared stream.
    Rng &r = target < delayRng_.size() ? delayRng_[target] : rng_;
    if (!r.nextBool(plan_.delayedXiRate))
        return 0;
    fired_[std::size_t(FaultKind::DelayedXi)].inc();
    return r.nextBounded(plan_.xiDelayMax) + 1;
}

} // namespace ztx::inject
