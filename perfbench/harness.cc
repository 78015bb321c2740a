/**
 * @file
 * In-process half of the zTX benchmark; perfbench/run.py drives it.
 *
 *   perfbench_harness <mode> --seed N --seconds S [--trace 0|1]
 *                     [--corrupt]
 *
 * Modes (perfbench/README.md says why each exists):
 *   zec12-144    one 144-CPU zEC12 machine whose CPUs commit private
 *                4-line read-modify-write transactions
 *   checked      the litmus corpus over several seeds; the chaos
 *                sweep's fault mixes on the three op-logged ADT
 *                runners plus their large-history points; a
 *                contended constrained/PPA transaction probe
 *
 * A run prepares its inputs a few dozen times untimed, then repeats
 * the mode's fixed unit of work until --seconds have passed. Before
 * each unit a batch of preparations is timed (a set-up sample); the
 * last of them is the unit's input. With --trace 1 units alternate
 * between untraced and traced; traced units record a span around
 * every call into the simulator's public API. --corrupt breaks one
 * expected value, so the output checks must report a failure.
 *
 * Output: one JSON document on stdout with the set-up samples, one
 * entry per unit (host seconds in all and per part of the work,
 * simulated instructions, a digest of the simulated statistics,
 * simulated counts), the spans, and the check tallies with the text
 * of the first failed checks.
 *
 * Only API surfaces the design keeps are used: isa::Assembler,
 * sim::Machine (constructor, setProgram, run, statsJson, peekMem),
 * the workload runners' result structs, and litmus parse/compile/
 * enumerate. Counters are read from statsJson(), scheduler knobs
 * stay at their defaults (the legacy scheduler).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/json.hh"
#include "common/rng.hh"
#include "inject/fault_plan.hh"
#include "inject/lincheck.hh"
#include "inject/order_infer.hh"
#include "isa/assembler.hh"
#include "litmus/compile.hh"
#include "litmus/corpus.hh"
#include "litmus/dsl.hh"
#include "litmus/enumerate.hh"
#include "sim/machine.hh"
#include "workload/hashtable.hh"
#include "workload/layout.hh"
#include "workload/list_set.hh"
#include "workload/queue.hh"

namespace {

using namespace ztx;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** A sub-seed for stream @p k of workload seed @p seed (SplitMix64). */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t k)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + k + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return (z ^ (z >> 31)) | 1;
}

/** FNV-1a over a sequence of strings (each followed by a separator). */
class Digest
{
  public:
    void
    add(std::string_view text)
    {
        for (const unsigned char c : text)
            mix(c);
        mix(0xff);
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    void
    mix(unsigned char c)
    {
        h_ = (h_ ^ c) * 0x100000001b3ULL;
    }

    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * In-memory span recorder. A span covers one call into a layer; its
 * parent is the span open when it began. Inert while !on.
 */
class Tracer
{
  public:
    bool on = false;
    /** The set-up sample or unit of work spans are recorded for. */
    unsigned unit = 0;

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, std::size_t idx)
            : tracer_(tracer), idx_(idx)
        {
        }
        ~Scope()
        {
            if (tracer_)
                tracer_->close(idx_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        std::size_t idx_;
    };

    /** Open a span named @p name in @p layer for work item @p point. */
    Scope
    span(const char *layer, const char *name, unsigned point)
    {
        if (!on)
            return Scope(nullptr, 0);
        const std::int64_t parent =
            stack_.empty() ? -1 : std::int64_t(stack_.back());
        spans_.push_back({layer, name, unit, point, parent,
                          secondsSince(origin_), 0.0});
        stack_.push_back(spans_.size() - 1);
        return Scope(this, spans_.size() - 1);
    }

    /** Every span recorded so far, as a JSON array. */
    Json
    json() const
    {
        Json out = Json::array();
        for (const Span &s : spans_) {
            Json j = Json::object();
            j["layer"] = s.layer;
            j["name"] = s.name;
            j["unit"] = s.unit;
            j["point"] = s.point;
            j["parent"] = s.parent;
            j["start"] = s.start;
            j["end"] = s.end;
            out.push(std::move(j));
        }
        return out;
    }

  private:
    struct Span
    {
        const char *layer;
        const char *name;
        unsigned unit;
        unsigned point; ///< work item within the unit
        std::int64_t parent; ///< index into spans_, -1 for a root
        double start;
        double end;
    };

    void
    close(std::size_t idx)
    {
        spans_[idx].end = secondsSince(origin_);
        stack_.pop_back();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/** Output-check tally, shared by every unit of a run. */
class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        ++attempted_;
        if (ok)
            return;
        ++failed_;
        if (failures_.size() < 20)
            failures_.push(what);
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const Json &failures() const { return failures_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    Json failures_ = Json::array();
};

/** What one unit of work produced. */
struct UnitResult
{
    double wallSeconds = 0;
    /** Host seconds of each part of the work, in a fixed order. */
    std::vector<double> partSeconds;
    std::uint64_t instructions = 0;
    Digest digest;
    /** Simulated counts (and per-unit host sums) by metric name. */
    Json counts = Json::object();
};

/** @name statsJson() readers @{ */
std::uint64_t
counterOf(const Json &group, const std::string &name)
{
    const Json *counters = group.find("counters");
    const Json *v = counters ? counters->find(name) : nullptr;
    return v ? v->asUint() : 0;
}

std::uint64_t
cpuSum(const Json &stats, const std::string &name)
{
    std::uint64_t sum = 0;
    const Json &cpus = *stats.find("cpus");
    for (std::size_t i = 0; i < cpus.size(); ++i)
        sum += counterOf(cpus.at(i), name);
    return sum;
}

/** The per-layer simulated counts of one machine's statsJson(). */
void
addStatsCounts(Json &counts, const Json &stats)
{
    const Json &machine = *stats.find("machine");
    const Json &hier = *stats.find("hierarchy");
    counts["sim.steps"] = counterOf(machine, "scheduler.steps");
    counts["sim.cycles"] =
        stats.find("meta")->find("elapsed_cycles")->asUint();
    counts["core.instructions"] = cpuSum(stats, "instructions");
    counts["core.fetch_rejected"] = cpuSum(stats, "fetch.rejected");
    for (const char *c : {"fetch.total", "fetch.l1_hit", "fetch.l2_hit",
                          "fetch.miss", "xi.exclusive", "xi.demote",
                          "xi.rejected"}) {
        std::string key = std::string("mem.") + c;
        key[key.find('.', 4)] = '_';
        counts[key] = counterOf(hier, c);
    }
    counts["tx.begins"] = cpuSum(stats, "tx.begins");
    counts["tx.commits"] = cpuSum(stats, "tx.commits");
    counts["tx.aborts"] = cpuSum(stats, "tx.aborts");
    counts["millicode.solo_requests"] =
        cpuSum(stats, "millicode.solo_requests");
    counts["millicode.ppa"] = cpuSum(stats, "millicode.ppa");
}
/** @} */

/** L3/L4 trimmed as in the paper sweeps: construction stays cheap. */
sim::MachineConfig
trimmedMachine(std::uint64_t seed)
{
    sim::MachineConfig cfg;
    cfg.seed = seed;
    cfg.geometry.l3 = {8ULL << 20, 12};
    cfg.geometry.l4 = {32ULL << 20, 24};
    return cfg;
}

// ---------------------------------------------------------------
// zec12-144
// ---------------------------------------------------------------

constexpr unsigned zecOpsPerCpu = 250;
constexpr Addr zecRegionBase = 0x40'0000;
constexpr Addr zecRegionStride = 0x1'0000;
constexpr unsigned zecLines = 4;
constexpr Addr lineBytes = 256;

/** Private-region transactions: @p iterations 4-line RMW commits. */
isa::Program
privateTxProgram(Addr base, unsigned iterations)
{
    isa::Assembler as;
    as.la(9, 0, std::int64_t(base));
    as.lhi(8, std::int64_t(iterations));
    as.label("loop");
    as.tbegin(0xFF);
    as.jnz("skip"); // private lines: aborts are incidental
    for (unsigned i = 0; i < zecLines; ++i) {
        as.lg(1, 9, std::int64_t(i * lineBytes));
        as.ahi(1, 1);
        as.lr(2, 9);
        if (i != 0)
            as.ahi(2, std::int64_t(i * lineBytes));
        as.stg(1, 2);
    }
    as.tend();
    as.label("skip");
    as.brct(8, "loop");
    as.halt();
    return as.finish();
}

struct ZecInputs
{
    std::vector<Addr> bases;
    std::vector<isa::Program> programs;
    std::unique_ptr<sim::Machine> machine;
};

ZecInputs
zecPrepare(std::uint64_t seed, Tracer &tracer, unsigned point)
{
    const auto root = tracer.span("perfbench", "setup", point);
    sim::MachineConfig cfg = trimmedMachine(seed);
    cfg.topology = mem::Topology(6, 6, 4);
    const unsigned cpus = cfg.topology.numCpus();

    // Seeded region placement: CPU i owns region slot[i].
    std::vector<unsigned> slot(cpus);
    std::iota(slot.begin(), slot.end(), 0u);
    Rng rng(subSeed(seed, 1));
    for (unsigned i = cpus - 1; i > 0; --i)
        std::swap(slot[i], slot[rng.nextBounded(i + 1)]);

    ZecInputs in;
    in.programs.reserve(cpus);
    {
        const auto s = tracer.span("isa", "isa::Assembler", point);
        for (unsigned i = 0; i < cpus; ++i) {
            in.bases.push_back(zecRegionBase +
                               Addr(slot[i]) * zecRegionStride);
            in.programs.push_back(
                privateTxProgram(in.bases.back(), zecOpsPerCpu));
        }
    }
    {
        const auto s =
            tracer.span("sim", "sim::Machine::Machine", point);
        in.machine = std::make_unique<sim::Machine>(cfg);
    }
    {
        const auto s =
            tracer.span("sim", "sim::Machine::setProgram", point);
        for (unsigned i = 0; i < cpus; ++i)
            in.machine->setProgram(i, &in.programs[i]);
    }
    return in;
}

UnitResult
zecUnit(ZecInputs &in, bool corrupt, Tracer &tracer, unsigned point,
        Checks &checks)
{
    const auto root = tracer.span("perfbench", "unit", point);
    sim::Machine &m = *in.machine;
    UnitResult u;
    const auto t0 = Clock::now();
    {
        const auto s = tracer.span("sim", "sim::Machine::run", point);
        m.run();
    }
    Json stats;
    {
        const auto s =
            tracer.span("common", "sim::Machine::statsJson", point);
        stats = m.statsJson();
    }
    // Every committed transaction incremented each of its CPU's
    // lines once; an aborted one (skipped, not retried) none.
    {
        const auto s =
            tracer.span("sim", "sim::Machine::peekMem", point);
        const Json &cpus = *stats.find("cpus");
        for (unsigned i = 0; i < m.numCpus(); ++i) {
            std::uint64_t expect = counterOf(cpus.at(i), "tx.commits");
            if (corrupt && i == 0)
                ++expect;
            bool ok = true;
            for (unsigned k = 0; k < zecLines; ++k)
                ok &= m.peekMem(in.bases[i] + k * lineBytes, 8) ==
                      expect;
            checks.expect(ok, "zec12-144: cpu " + std::to_string(i) +
                                  " private lines != its tx.commits");
        }
    }
    checks.expect(m.allHalted(), "zec12-144: not every CPU halted");
    u.wallSeconds = secondsSince(t0);
    u.partSeconds.push_back(u.wallSeconds);

    u.digest.add(stats.dump());
    addStatsCounts(u.counts, stats);
    u.instructions = u.counts["core.instructions"].asUint();
    return u;
}

// ---------------------------------------------------------------
// checked
// ---------------------------------------------------------------

/** Litmus enumeration seeds per unit (verdicts must not depend). */
constexpr unsigned litmusSeeds = 3;

/** Watchdog window of the chaos points: generous against backoff. */
constexpr Cycles watchdogWindow = 2'000'000;

/** The chaos sweep's fault mixes (name, rate scale). */
struct Mix
{
    const char *name;
    double scale;
};

constexpr Mix chaosMixes[] = {
    {"none", 0.0},       {"spurious", 1.0},   {"xi_storm", 1.0},
    {"squeeze", 1.0},    {"interrupts", 1.0}, {"delayed_xi", 1.0},
    {"targeted", 1.0},   {"poison", 1.0},     {"scenario", 1.0},
    {"all", 0.5},        {"all", 1.0},        {"all", 2.0},
};

/** Base rates are per scheduler step, deliberately harsh at 1. */
inject::FaultPlan
mixPlan(const std::string &mix, double scale, Addr hot_line,
        std::uint64_t seed)
{
    inject::FaultPlan plan;
    plan.seed = seed;
    const bool all = mix == "all";
    if (all || mix == "spurious")
        plan.spuriousAbortRate = 0.002 * scale;
    if (all || mix == "xi_storm")
        plan.xiStormRate = 0.003 * scale;
    if (all || mix == "squeeze") {
        plan.capacitySqueezeRate = 0.0005 * scale;
        plan.squeezeDuration = 3000;
    }
    if (all || mix == "interrupts")
        plan.interruptStormRate = 0.0004 * scale;
    if (all || mix == "delayed_xi") {
        plan.delayedXiRate = 0.2 * scale;
        plan.xiDelayMax = 300;
    }
    if (all || mix == "targeted") {
        plan.targetedConflictRate = 0.004 * scale;
        plan.targetedLine = hot_line;
    }
    if (all || mix == "poison")
        plan.poisonRate = 0.0002 * scale;
    if (mix == "scenario") {
        // Periodic poison of the hot line, a conflict XI at whoever
        // holds it once the first abort lands, then a spurious abort.
        inject::ScenarioStep poison;
        poison.trigger = inject::TriggerKind::AtCycle;
        poison.at = 5000;
        poison.period = 40000;
        poison.repeat = 5;
        poison.kind = inject::FaultKind::PoisonLine;
        poison.line = hot_line;
        plan.scenario.push_back(poison);

        inject::ScenarioStep conflict;
        conflict.trigger = inject::TriggerKind::OnAbort;
        conflict.count = 1;
        conflict.kind = inject::FaultKind::TargetedConflict;
        conflict.line = hot_line;
        plan.scenario.push_back(conflict);

        inject::ScenarioStep spurious;
        spurious.trigger = inject::TriggerKind::AfterStep;
        spurious.after = 1;
        spurious.at = 2000;
        spurious.kind = inject::FaultKind::SpuriousAbort;
        spurious.line = hot_line;
        plan.scenario.push_back(spurious);
    }
    return plan;
}

enum class Adt
{
    ListSet,
    HashTable,
    Queue
};

constexpr Adt adts[] = {Adt::ListSet, Adt::HashTable, Adt::Queue};

/** One ADT point: a runner under a fault mix. */
struct AdtPoint
{
    Adt adt;
    Mix mix;
    unsigned iterations;
    /** 25k-op history: must be checked by order inference. */
    bool large;
};

std::vector<AdtPoint>
adtPoints()
{
    std::vector<AdtPoint> points;
    for (const Adt adt : adts)
        for (const Mix &mix : chaosMixes)
            points.push_back({adt, mix, 150, false});
    // 4 CPUs x 6250 ops; the queue does an enqueue and a dequeue.
    for (const Adt adt : adts)
        points.push_back({adt, {"spurious", 0.25},
                          adt == Adt::Queue ? 3125u : 6250u, true});
    return points;
}

constexpr unsigned adtCpus = 4;

/** What the harness keeps of a runner's result. */
struct AdtOutcome
{
    bool structureOk = false;
    bool watchdogFired = false;
    inject::LinVerdict lincheck;
    bool inferred = false;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t instructions = 0;
    std::uint64_t ops = 0;
    /** The simulated result fields, for the digest. */
    Json fields;
};

template <typename Result>
AdtOutcome
outcomeOf(const Result &res, bool extra_ok, std::uint64_t ops)
{
    AdtOutcome out;
    out.structureOk = res.oracle.ok && extra_ok;
    out.watchdogFired = res.watchdogFired;
    out.lincheck = res.lincheck;
    out.inferred = res.orderInfer.inferred;
    out.commits = res.txCommits;
    out.aborts = res.txAborts;
    out.instructions = res.instructions;
    out.ops = ops;
    Json f = Json::object();
    f["commits"] = res.txCommits;
    f["aborts"] = res.txAborts;
    Json reasons = Json::object();
    for (const auto &[reason, n] : res.abortsByReason)
        reasons[reason] = n;
    f["aborts_by_reason"] = std::move(reasons);
    f["sim_cycles"] = std::uint64_t(res.elapsedCycles);
    f["instructions"] = res.instructions;
    f["mean_region_cycles"] = res.meanRegionCycles;
    f["oracle"] = res.oracle.summary();
    f["watchdog_fired"] = res.watchdogFired;
    f["order_infer"] = inject::orderInferJson(res.orderInfer);
    out.fields = std::move(f);
    return out;
}

Addr
hotLineOf(Adt adt)
{
    switch (adt) {
      case Adt::ListSet:
        return workload::listBase;
      case Adt::HashTable:
        return workload::hashTableBase;
      case Adt::Queue:
        break;
    }
    return workload::queueBase;
}

AdtOutcome
runAdtPoint(const AdtPoint &pt, std::uint64_t seed, unsigned idx,
            Tracer &tracer)
{
    sim::MachineConfig mcfg = trimmedMachine(seed);
    mcfg.faults = mixPlan(pt.mix.name, pt.mix.scale, hotLineOf(pt.adt),
                          subSeed(seed, 100 + idx));
    mcfg.watchdogCycles = watchdogWindow;
    const std::uint64_t ops = std::uint64_t(adtCpus) * pt.iterations;

    switch (pt.adt) {
      case Adt::ListSet: {
        workload::ListSetBenchConfig cfg;
        cfg.cpus = adtCpus;
        cfg.useElision = true;
        cfg.iterations = pt.iterations;
        cfg.opLog = true;
        cfg.seed = seed;
        cfg.machine = mcfg;
        const auto s = tracer.span("workload",
                                   "workload::runListSetBench", idx);
        const auto res = workload::runListSetBench(cfg);
        return outcomeOf(res, res.sorted && res.lengthConsistent, ops);
      }
      case Adt::HashTable: {
        workload::HashTableBenchConfig cfg;
        cfg.cpus = adtCpus;
        cfg.useElision = true;
        cfg.iterations = pt.iterations;
        cfg.opLog = true;
        cfg.seed = seed;
        cfg.machine = mcfg;
        const auto s = tracer.span("workload",
                                   "workload::runHashTableBench", idx);
        return outcomeOf(workload::runHashTableBench(cfg), true, ops);
      }
      case Adt::Queue:
        break;
    }
    workload::QueueBenchConfig cfg;
    cfg.cpus = adtCpus;
    cfg.useConstrainedTx = true;
    cfg.iterations = pt.iterations;
    cfg.opLog = true;
    cfg.seed = seed;
    cfg.machine = mcfg;
    const auto s =
        tracer.span("workload", "workload::runQueueBench", idx);
    return outcomeOf(workload::runQueueBench(cfg), true, 2 * ops);
}

/** @name Contended-transaction probe
 * Four CPUs increment one shared counter line under every fault kind
 * but poison: two with constrained transactions (the millicode
 * escalation ladder up to solo mode), two with TBEGIN and a PPA
 * retry loop. Every increment must land exactly once.
 * @{ */
constexpr unsigned probeCpus = 4;
constexpr unsigned probeOpsPerCpu = 1500;
constexpr Addr probeLineBase = 0x0800'0000;

isa::Program
probeConstrainedProgram(Addr line)
{
    isa::Assembler as;
    as.la(9, 0, std::int64_t(line));
    as.lhi(8, probeOpsPerCpu);
    as.label("loop");
    as.tbeginc(0xFF);
    as.lg(1, 9);
    as.ahi(1, 1);
    as.stg(1, 9);
    as.tend();
    as.brct(8, "loop");
    as.halt();
    return as.finish();
}

isa::Program
probePpaProgram(Addr line)
{
    isa::Assembler as;
    as.la(9, 0, std::int64_t(line));
    as.lhi(8, probeOpsPerCpu);
    as.lhi(5, 0);
    as.label("loop");
    as.tbegin(0xFF);
    as.jnz("aborted");
    as.lg(1, 9);
    as.ahi(1, 1);
    as.stg(1, 9);
    as.tend();
    as.lhi(5, 0);
    as.brct(8, "loop");
    as.halt();
    as.label("aborted");
    as.ahi(5, 1);
    as.ppa(5);
    as.j("loop");
    return as.finish();
}
/** @} */

struct CheckedInputs
{
    std::vector<litmus::Compiled> corpus;
    Addr probeLine = 0;
    isa::Program probeConstrained;
    isa::Program probePpa;
    std::unique_ptr<sim::Machine> probe;
};

CheckedInputs
checkedPrepare(std::uint64_t seed, Tracer &tracer, unsigned point,
               Checks &checks)
{
    const auto root = tracer.span("perfbench", "setup", point);
    CheckedInputs in;
    for (const litmus::CorpusTest &ct : litmus::corpus()) {
        litmus::ParseResult pr;
        {
            const auto s = tracer.span("litmus", "litmus::parse", point);
            pr = litmus::parse(ct.src);
        }
        checks.expect(pr.ok, std::string("litmus: ") + ct.name +
                                 ": parse error: " + pr.error);
        if (!pr.ok)
            continue;
        const auto s = tracer.span("litmus", "litmus::compile", point);
        in.corpus.push_back(litmus::compile(pr.test));
    }

    in.probeLine = probeLineBase +
                   Addr(subSeed(seed, 2) % 64) * lineBytes;
    {
        const auto s = tracer.span("isa", "isa::Assembler", point);
        in.probeConstrained = probeConstrainedProgram(in.probeLine);
        in.probePpa = probePpaProgram(in.probeLine);
    }
    sim::MachineConfig cfg = trimmedMachine(seed);
    cfg.activeCpus = probeCpus;
    cfg.faults = mixPlan("all", 1.0, in.probeLine, subSeed(seed, 3));
    cfg.faults.poisonRate = 0; // a poisoned counter cannot be checked
    cfg.watchdogCycles = watchdogWindow;
    {
        const auto s =
            tracer.span("sim", "sim::Machine::Machine", point);
        in.probe = std::make_unique<sim::Machine>(cfg);
    }
    {
        const auto s =
            tracer.span("sim", "sim::Machine::setProgram", point);
        for (unsigned i = 0; i < probeCpus; ++i)
            in.probe->setProgram(i, i % 2 ? &in.probePpa
                                          : &in.probeConstrained);
    }
    return in;
}

UnitResult
checkedUnit(CheckedInputs &in, std::uint64_t seed, bool corrupt,
            Tracer &tracer, unsigned point, Checks &checks)
{
    const auto root = tracer.span("perfbench", "unit", point);
    UnitResult u;
    std::vector<litmus::EnumResult> enums;
    std::vector<AdtOutcome> adt;
    Json probe_stats;
    std::uint64_t schedules = 0;
    const auto t0 = Clock::now();

    // (1) The litmus corpus, exhaustively, under several seeds.
    Clock::time_point part;
    for (std::size_t t = 0; t < in.corpus.size(); ++t) {
        part = Clock::now();
        for (unsigned k = 0; k < litmusSeeds; ++k) {
            litmus::EnumOptions opt;
            opt.seed = subSeed(seed, 10 + k);
            {
                const auto s = tracer.span(
                    "litmus", "litmus::enumerate", unsigned(t));
                enums.push_back(litmus::enumerate(in.corpus[t], opt));
            }
            const litmus::EnumResult &r = enums.back();
            const char *want = corrupt && t == 0 && k == 0
                                   ? "violation"
                                   : "ok";
            checks.expect(r.verdict == want,
                          "litmus: " + in.corpus[t].test.name +
                              ": verdict " + r.verdict);
            schedules += r.schedulesExplored;
            u.instructions += r.instructions;
        }
        u.partSeconds.push_back(secondsSince(part));
    }

    // (2) The ADT runners under the chaos mixes, op-logged, plus the
    // large-history points.
    const std::vector<AdtPoint> points = adtPoints();
    for (unsigned i = 0; i < points.size(); ++i) {
        const AdtPoint &pt = points[i];
        part = Clock::now();
        adt.push_back(runAdtPoint(pt, seed, i, tracer));
        u.partSeconds.push_back(secondsSince(part));
        const AdtOutcome &o = adt.back();
        const std::string where =
            std::string("chaos point ") + std::to_string(i) + " (" +
            pt.mix.name + "): ";
        checks.expect(o.structureOk, where + "oracle violation");
        checks.expect(!o.watchdogFired, where + "watchdog fired");
        checks.expect(o.lincheck.checked || o.lincheck.truncated,
                      where + "history unchecked");
        if (pt.large)
            checks.expect(o.lincheck.checked && o.inferred,
                          where + "large history not inferred");
        u.instructions += o.instructions;
    }

    // (3) The contended-transaction probe.
    part = Clock::now();
    sim::Machine &m = *in.probe;
    {
        const auto s = tracer.span("sim", "sim::Machine::run", point);
        m.run();
    }
    {
        const auto s =
            tracer.span("common", "sim::Machine::statsJson", point);
        probe_stats = m.statsJson();
    }
    std::uint64_t counter = 0;
    {
        const auto s =
            tracer.span("sim", "sim::Machine::peekMem", point);
        counter = m.peekMem(in.probeLine, 8);
    }
    const std::uint64_t expect = probeCpus * probeOpsPerCpu;
    checks.expect(!m.watchdogFired(), "probe: watchdog fired");
    checks.expect(counter == expect, "probe: counter " +
                                         std::to_string(counter));
    checks.expect(cpuSum(probe_stats, "tx.commits") == expect,
                  "probe: commits != increments");
    u.partSeconds.push_back(secondsSince(part));
    u.wallSeconds = secondsSince(t0);

    for (std::size_t i = 0; i < enums.size(); ++i)
        u.digest.add(litmus::enumResultJson(
                         in.corpus[i / litmusSeeds], enums[i])
                         .dump());
    std::uint64_t ops = 0, history_ops = 0, inferred = 0, fired = 0;
    std::uint64_t commits = 0, aborts = 0;
    for (const AdtOutcome &o : adt) {
        u.digest.add(o.fields.dump());
        ops += o.ops;
        history_ops += o.lincheck.numOps;
        inferred += o.inferred ? 1 : 0;
        fired += o.watchdogFired ? 1 : 0;
        commits += o.commits;
        aborts += o.aborts;
    }
    u.digest.add(probe_stats.dump());
    u.instructions += cpuSum(probe_stats, "instructions");

    addStatsCounts(u.counts, probe_stats);
    u.counts["litmus.schedules"] = schedules;
    u.counts["workload.adt_ops"] = ops;
    u.counts["workload.tx_commits"] = commits;
    u.counts["workload.tx_aborts"] = aborts;
    u.counts["inject.histories"] = std::uint64_t(adt.size());
    u.counts["inject.history_ops"] = history_ops;
    u.counts["inject.inferred"] = inferred;
    u.counts["inject.watchdog_fired"] = fired;
    return u;
}

// ---------------------------------------------------------------
// driver
// ---------------------------------------------------------------

struct Options
{
    std::string mode;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool corrupt = false;
};

/**
 * Preparations per set-up sample, per mode. One preparation takes a
 * few ms, too short to time steadily on a shared host, so a sample is
 * the mean over a batch that lasts tens of ms.
 */
constexpr unsigned zecSetupBatch = 8;
constexpr unsigned checkedSetupBatch = 50;

/**
 * Untimed preparations before the first set-up sample. The first few
 * dozen machine constructions of a process run up to several times
 * slower than later ones while fresh memory is faulted in; a
 * long-running user pays that once, so set-up is timed after it.
 */
constexpr unsigned warmupReps = 30;

Json
unitJson(const UnitResult &u, bool traced, unsigned unit)
{
    Json j = Json::object();
    j["unit"] = unit;
    j["wall_s"] = u.wallSeconds;
    Json parts = Json::array();
    for (const double p : u.partSeconds)
        parts.push(p);
    j["parts_s"] = std::move(parts);
    j["traced"] = traced;
    j["instructions"] = u.instructions;
    j["digest"] = u.digest.hex();
    j["counts"] = u.counts;
    return j;
}

/**
 * Warm up, then run units until opt.seconds have passed (at least one;
 * in traced runs at least one untraced and one traced, alternating).
 * Before each unit, @p batch preparations are timed and their mean is a
 * set-up sample; the last of them is the unit's input. Spreading the
 * samples over the run lets the caller pick those taken while the host
 * ran at full speed.
 */
template <typename Prepare, typename Unit>
void
measure(const Options &opt, unsigned batch, Tracer &tracer,
        Checks &checks, Prepare prepare, Unit unit, Json &doc)
{
    unsigned point = 0;
    for (unsigned k = 0; k < warmupReps; ++k)
        prepare(point);
    Json setups = Json::array();
    Json units = Json::array();
    std::string first_digest;
    const auto start = Clock::now();
    for (unsigned n = 0;; ++n) {
        const bool traced = opt.trace && n % 2 == 1;
        tracer.on = traced;
        double sum = 0;
        for (unsigned b = 1; b < batch; ++b, ++point) {
            tracer.unit = point;
            const auto t0 = Clock::now();
            const auto discarded = prepare(point);
            sum += secondsSince(t0);
        }
        tracer.unit = point;
        const auto t0 = Clock::now();
        auto in = prepare(point);
        sum += secondsSince(t0);
        setups.push(sum / batch);
        ++point;

        tracer.unit = point;
        const UnitResult u = unit(in, point);
        const std::string digest = u.digest.hex();
        if (n == 0)
            first_digest = digest;
        checks.expect(digest == first_digest,
                      opt.mode + ": simulated digest changed between "
                                 "units of one seed");
        units.push(unitJson(u, traced, point));
        ++point;
        if (secondsSince(start) >= opt.seconds && (!opt.trace || n >= 1))
            break;
    }
    doc["setup_s"] = std::move(setups);
    doc["units"] = std::move(units);
}

bool
parseOptions(int argc, char **argv, Options &opt)
{
    if (argc < 2)
        return false;
    opt.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--seed" && has_value)
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && has_value)
            opt.seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--trace" && has_value)
            opt.trace = std::strcmp(argv[++i], "0") != 0;
        else if (a == "--corrupt")
            opt.corrupt = true;
        else
            return false;
    }
    return opt.mode == "zec12-144" || opt.mode == "checked";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: perfbench_harness zec12-144|checked "
                     "--seed N --seconds S [--trace 0|1] "
                     "[--corrupt]\n");
        return 2;
    }

#ifdef __GLIBC__
    // Keep freed memory in the heap for the next machine. Otherwise
    // each preparation maps fresh pages, and the first-touch faults,
    // whose cost varies up to 3x between processes on a virtualised
    // host, dominate set-up. Warm-up leaves the heap large enough.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
#endif

    Tracer tracer;
    Checks checks;
    Json doc = Json::object();
    doc["mode"] = opt.mode;
    doc["seed"] = opt.seed;

    if (opt.mode == "zec12-144") {
        measure(
            opt, zecSetupBatch, tracer, checks,
            [&](unsigned point) {
                return zecPrepare(opt.seed, tracer, point);
            },
            [&](ZecInputs &in, unsigned point) {
                return zecUnit(in, opt.corrupt, tracer, point, checks);
            },
            doc);
    } else {
        measure(
            opt, checkedSetupBatch, tracer, checks,
            [&](unsigned point) {
                return checkedPrepare(opt.seed, tracer, point, checks);
            },
            [&](CheckedInputs &in, unsigned point) {
                return checkedUnit(in, opt.seed, opt.corrupt, tracer,
                                   point, checks);
            },
            doc);
    }

    doc["spans"] = tracer.json();
    doc["checks"] = checks.attempted();
    doc["failed"] = checks.failed();
    doc["failures"] = checks.failures();
    std::cout << doc.dump() << '\n';
    return 0;
}
