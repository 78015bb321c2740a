/**
 * @file
 * The litmus enumerator: DFS over decision prefixes with
 * commutativity reduction, plus the randomized-steer mode the
 * property tests cross-check against (see enumerate.hh).
 */

#include "litmus/enumerate.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "common/rng.hh"
#include "core/cpu.hh"
#include "core/op_recorder.hh"
#include "inject/fault_injector.hh"
#include "inject/steer.hh"

namespace ztx::litmus {

namespace {

/** OPLOG sink: a flat event list (litmus histories are tiny). */
class TraceRecorder final : public core::OpRecorder
{
  public:
    std::vector<OpEvent> events;

    void
    opInvoke(CpuId cpu, Cycles now, std::uint32_t code,
             std::uint64_t a0, std::uint64_t a1) override
    {
        (void)a0;
        (void)a1;
        events.push_back({cpu, now, true, code, 0});
    }

    void
    opResponse(CpuId cpu, Cycles now, std::uint64_t result) override
    {
        events.push_back({cpu, now, false, 0, result});
    }

    Json
    pendingOpJson(CpuId cpu) const override
    {
        (void)cpu;
        return Json();
    }
};

/** A decoded terminal state. */
struct Outcome
{
    std::vector<std::uint64_t> locVals;
    std::vector<std::vector<std::uint64_t>> regs; ///< per thread
    std::vector<int> ok; ///< per thread; -1 = no tx block
    std::string str;
};

Outcome
readOutcome(const Compiled &c, sim::Machine &m)
{
    Outcome o;
    std::ostringstream os;
    for (unsigned i = 0; i < c.test.locs.size(); ++i) {
        o.locVals.push_back(m.peekMem(c.locAddr[i], 8));
        if (i)
            os << ' ';
        os << c.test.locs[i] << '=' << o.locVals.back();
    }
    for (unsigned t = 0; t < c.test.threads.size(); ++t) {
        const Thread &th = c.test.threads[t];
        std::vector<std::uint64_t> regs;
        for (unsigned r = 0; r < th.numRegs; ++r) {
            regs.push_back(m.cpu(t).gr(litmusRegBase + r));
            os << ' ' << th.name << ".r" << r << '='
               << regs.back();
        }
        o.regs.push_back(std::move(regs));
        if (th.hasTx) {
            const int v = int(m.cpu(t).gr(litmusOkReg) & 1);
            o.ok.push_back(v);
            os << ' ' << th.name << ".ok=" << v;
        } else {
            o.ok.push_back(-1);
        }
    }
    o.str = os.str();
    return o;
}

bool
matches(const Cond &cond, const Outcome &o)
{
    for (const Eq &eq : cond.eqs) {
        std::uint64_t have = 0;
        switch (eq.kind) {
          case Eq::Kind::Loc:
            have = o.locVals.at(eq.loc);
            break;
          case Eq::Kind::Reg:
            have = o.regs.at(eq.thread).at(eq.reg);
            break;
          case Eq::Kind::Ok:
            have = std::uint64_t(std::max(0, o.ok.at(eq.thread)));
            break;
        }
        if (have != eq.value)
            return false;
    }
    return true;
}

/** Forbidden first; then the allowed set (when it constrains). */
bool
outcomeOk(const Test &t, const Outcome &o)
{
    for (const Cond &c : t.forbidden)
        if (matches(c, o))
            return false;
    if (t.allowAll || t.allowed.empty())
        return true;
    for (const Cond &c : t.allowed)
        if (matches(c, o))
            return true;
    return false;
}

/**
 * The steer driving one run: eager invisible stepping, prefix
 * replay at decision points, runnable-set recording for backtrack.
 * In random mode (rng set) decisions are uniform draws instead.
 *
 * Blocked-step reduction: a step whose access was stiff-armed by
 * another CPU's transaction retires nothing — same ia, no abort, no
 * architectural change. Re-offering that CPU as a candidate would
 * make the schedule tree infinite (the self-loop can be taken any
 * number of times), so a CPU whose chosen step made no progress is
 * *parked*: excluded from the candidate set until some other CPU
 * makes progress (which is what could unblock it). When every
 * visible candidate is parked — a mutual-stall duel, each side
 * stiff-arming the other's XIs — the steer branches once over the
 * duel winner and then *forces* that CPU, spinning it without
 * further branching until the loser's hang-avoidance threshold
 * (xiRejectAbortThreshold) aborts the loser and the winner's access
 * completes. Soundness: a no-progress step leaves the machine state
 * identical (modulo the opponent's reject counter, which only the
 * forced-spin path exercises), so every final state reachable
 * through the pruned self-loops is reachable without them.
 */
class EnumSteer final : public inject::ScheduleSteer
{
  public:
    const Compiled *c = nullptr;
    sim::Machine *m = nullptr;
    std::vector<unsigned> *prefix = nullptr;
    Rng *rng = nullptr; ///< random mode when set

    /** Visible candidate sets recorded at each decision. */
    std::vector<std::vector<CpuId>> sets;
    unsigned depth = 0;
    std::uint64_t steps = 0;
    std::uint64_t stepLimit = 0;
    bool capped = false;
    bool recordTrace = true;
    std::vector<TraceStep> trace;

    CpuId
    choose(const std::vector<CpuId> &runnable) override
    {
        if (steps >= stepLimit) {
            capped = true;
            return invalidCpu;
        }
        ++steps;

        if (parked_.empty())
            parked_.assign(m->numCpus(), false);

        // Progress bookkeeping for the previously stepped CPU: a
        // retired instruction moves ia, an abort bumps the abort
        // counter (constrained retries resume at the *same* ia),
        // and a halt is progress by definition. Any progress may
        // have unblocked a parked CPU, so the park set clears.
        if (last_ != invalidCpu) {
            const core::Cpu &prev = m->cpu(last_);
            const bool progressed = prev.halted() ||
                                    prev.psw().ia != lastIa_ ||
                                    prev.abortsTotal() !=
                                        lastAborts_;
            if (progressed) {
                std::fill(parked_.begin(), parked_.end(), false);
                if (forced_ == last_)
                    forced_ = invalidCpu;
            } else {
                parked_[last_] = true;
            }
        }

        // Forced spin (duel winner): keep stepping it, without
        // branching, until it progresses or halts.
        if (forced_ != invalidCpu && !m->cpu(forced_).halted())
            return pick(forced_, false);

        visible_.clear();
        CpuId firstInvisible = invalidCpu;
        for (const CpuId id : runnable) {
            if (visibleNext(*c, *m, id))
                visible_.push_back(id);
            else if (firstInvisible == invalidCpu)
                firstInvisible = id;
        }
        // Reduction: private steps commute — run them eagerly,
        // lowest id first, without branching.
        if (firstInvisible != invalidCpu)
            return pick(firstInvisible, false);

        candidates_.clear();
        for (const CpuId id : visible_)
            if (!parked_[id])
                candidates_.push_back(id);
        bool duel = false;
        if (candidates_.empty()) {
            // Mutual stall: branch over the winner, then force it.
            candidates_ = visible_;
            duel = true;
        }

        CpuId chosen;
        bool decision = candidates_.size() > 1;
        if (!decision) {
            chosen = candidates_.front();
        } else if (rng) {
            chosen =
                candidates_[rng->nextBounded(candidates_.size())];
        } else {
            if (depth == prefix->size())
                prefix->push_back(0);
            if (depth >= sets.size())
                sets.resize(depth + 1);
            sets[depth] = candidates_;
            if ((*prefix)[depth] >= candidates_.size())
                ztx_fatal("litmus replay divergence at decision ",
                          depth, ": prefix index ",
                          (*prefix)[depth], " of ",
                          candidates_.size(),
                          " candidates (non-deterministic "
                          "machine?)");
            chosen = candidates_[(*prefix)[depth]];
            ++depth;
        }
        if (duel)
            forced_ = chosen;
        return pick(chosen, decision);
    }

  private:
    CpuId
    pick(CpuId chosen, bool decision)
    {
        last_ = chosen;
        lastIa_ = m->cpu(chosen).psw().ia;
        lastAborts_ = m->cpu(chosen).abortsTotal();
        if (recordTrace)
            trace.push_back({chosen, lastIa_, m->now(), decision});
        return chosen;
    }

    std::vector<CpuId> visible_;
    std::vector<CpuId> candidates_;
    std::vector<bool> parked_;
    CpuId last_ = invalidCpu;
    Addr lastIa_ = 0;
    std::uint64_t lastAborts_ = 0;
    CpuId forced_ = invalidCpu;
};

/** Per-run machine wrapper: build, load, init memory, record. */
struct Run
{
    sim::MachineConfig cfg;
    sim::Machine m;
    TraceRecorder rec;

    Run(const Compiled &c, inject::ScheduleSteer *steer,
        std::uint64_t seed)
        : cfg([&] {
              sim::MachineConfig k = c.config;
              k.seed = seed;
              k.steer = steer;
              return k;
          }()),
          m(cfg)
    {
        for (unsigned i = 0; i < c.test.locs.size(); ++i)
            if (c.test.init[i])
                m.memory().write(c.locAddr[i], c.test.init[i], 8);
        for (unsigned t = 0; t < c.programs.size(); ++t) {
            m.setProgram(t, &c.programs[t]);
            m.cpu(t).setOpRecorder(&rec);
        }
    }

    void
    fold(EnumResult &res)
    {
        res.simCycles += m.now();
        for (unsigned i = 0; i < m.numCpus(); ++i) {
            res.abortsTotal += m.cpu(i).abortsTotal();
            res.commitsTotal += m.cpu(i).stats().value("tx.commits");
            res.instructions +=
                m.cpu(i).stats().value("instructions");
        }
        const std::uint64_t fired =
            m.injector() ? m.injector()->stats().value("scenario.fired")
                         : 0;
        res.scenarioFiredTotal += fired;
        res.scenarioFiredMin =
            std::min(res.scenarioFiredMin, fired);
    }
};

} // namespace

EnumResult
enumerate(const Compiled &c, const EnumOptions &opt)
{
    EnumResult res;
    std::vector<unsigned> prefix;
    bool exhausted = false;

    while (!exhausted) {
        if (res.schedulesExplored >= opt.maxSchedules) {
            res.capped = true;
            if (res.capReason.empty())
                res.capReason = "schedules";
            break;
        }

        EnumSteer steer;
        steer.c = &c;
        steer.prefix = &prefix;
        steer.stepLimit = opt.maxStepsPerRun;
        Run run(c, &steer, opt.seed);
        steer.m = &run.m;
        run.m.run();

        ++res.schedulesExplored;
        res.stepsTotal += steer.steps;
        res.decisionsTotal += steer.depth;
        res.maxDepth = std::max<std::uint64_t>(res.maxDepth,
                                               steer.depth);
        run.fold(res);

        const bool runCapped = steer.capped || !run.m.allHalted();
        if (runCapped) {
            // The terminal state of a capped run is not a real
            // outcome; the verdict can no longer be "ok".
            res.capped = true;
            if (res.capReason.empty())
                res.capReason = "steps";
        } else {
            const Outcome o = readOutcome(c, run.m);
            OutcomeInfo &info = res.outcomes[o.str];
            if (info.count++ == 0)
                info.ok = outcomeOk(c.test, o);
            if (!info.ok &&
                std::find(res.violations.begin(),
                          res.violations.end(),
                          o.str) == res.violations.end()) {
                res.violations.push_back(o.str);
                if (!res.witness) {
                    Witness w;
                    w.schedule = res.schedulesExplored - 1;
                    w.outcome = o.str;
                    w.steps = std::move(steer.trace);
                    w.events = std::move(run.rec.events);
                    res.witness = std::move(w);
                }
            }
        }

        // Backtrack: deepest decision with an unexplored sibling.
        // prefix.size() == steer.depth here — every entry was
        // either replayed or appended during the run.
        int d = int(prefix.size()) - 1;
        for (; d >= 0; --d) {
            if (prefix[d] + 1 < steer.sets[d].size()) {
                ++prefix[d];
                prefix.resize(d + 1);
                break;
            }
        }
        if (d < 0)
            exhausted = true;
    }

    if (!res.violations.empty())
        res.verdict = "violation";
    else if (res.capped)
        res.verdict = "frontier-capped";
    else
        res.verdict = "ok";
    return res;
}

RandomResult
runRandom(const Compiled &c, unsigned runs, std::uint64_t seed0,
          const EnumOptions &opt)
{
    RandomResult res;
    for (unsigned i = 0; i < runs; ++i) {
        Rng rng(seed0 + i);
        EnumSteer steer;
        steer.c = &c;
        steer.rng = &rng;
        steer.stepLimit = opt.maxStepsPerRun;
        steer.recordTrace = false;
        Run run(c, &steer, opt.seed);
        steer.m = &run.m;
        run.m.run();
        if (steer.capped || !run.m.allHalted()) {
            ++res.cappedRuns;
            continue;
        }
        ++res.runs;
        ++res.outcomes[readOutcome(c, run.m).str];
    }
    return res;
}

Json
enumResultJson(const Compiled &c, const EnumResult &res)
{
    Json j = Json::object();
    j["test"] = c.test.name;
    j["verdict"] = res.verdict;
    j["capped"] = res.capped;
    j["cap_reason"] = res.capReason;
    j["schedules_explored"] = res.schedulesExplored;
    j["decisions"] = res.decisionsTotal;
    j["steps_total"] = res.stepsTotal;
    j["max_depth"] = res.maxDepth;
    j["outcomes_seen"] = std::uint64_t(res.outcomes.size());
    Json outs = Json::array();
    for (const auto &[state, info] : res.outcomes) {
        Json o = Json::object();
        o["state"] = state;
        o["count"] = info.count;
        o["ok"] = info.ok;
        outs.push(std::move(o));
    }
    j["outcomes"] = std::move(outs);
    Json viol = Json::array();
    for (const std::string &v : res.violations)
        viol.push(Json(v));
    j["violations"] = std::move(viol);
    j["commits"] = res.commitsTotal;
    j["aborts"] = res.abortsTotal;
    j["scenario_fired"] = res.scenarioFiredTotal;
    return j;
}

} // namespace ztx::litmus
