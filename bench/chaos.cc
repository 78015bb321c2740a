/**
 * @file
 * Chaos sweep: run the three validated workloads (sorted list set,
 * hash table, linked queue) under increasingly hostile fault
 * injection — spurious aborts, XI storms against the transactional
 * footprint, capacity squeezes, interrupt storms, delayed XI
 * responses, and everything at once — with the forward-progress
 * watchdog armed. For every (workload, mix, scale) point the
 * consistency oracle verifies structure invariants and linearizable
 * effect counts after the run, and the operation-log checker
 * (inject/lincheck) verifies that the recorded invoke/response
 * history is actually linearizable — catching lost updates,
 * duplicate dequeues, and stale reads that leave the final
 * structure intact.
 *
 * The paper's claim under test: transactions may abort for any
 * environmental reason, but committed state is never corrupted, and
 * constrained transactions still complete (eventual success via the
 * millicode escalation ladder up to broadcast-stop, §II.A/§III.E).
 *
 * Exit status is non-zero if any oracle fails or any watchdog
 * fires, so the binary doubles as a stress gate (chaos_smoke).
 * Everything derives from the machine seed: the same invocation
 * replays bit-identically.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "inject/fault_plan.hh"
#include "inject/lincheck.hh"
#include "inject/order_infer.hh"
#include "json_report.hh"
#include "point_runner.hh"
#include "workload/hashtable.hh"
#include "workload/layout.hh"
#include "workload/list_set.hh"
#include "workload/queue.hh"
#include "workload/report.hh"

namespace {

using namespace ztx;

/** One injection mix of the sweep. */
struct Mix
{
    const char *name;
    double scale; ///< multiplies every rate of the mix
};

/**
 * Build the plan for @p mix at @p scale. Base rates are per
 * scheduler step and deliberately harsh at scale 1: a few-thousand
 * step run sees every fault kind many times. @p hot_line is the
 * workload's most contended line (list head, bucket array base,
 * queue anchor) — where targeted conflicts and scripted scenarios
 * aim.
 */
inject::FaultPlan
mixPlan(const std::string &mix, double scale, Addr hot_line)
{
    inject::FaultPlan plan;
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
        // Scripted sequence against the hot line: periodic poison
        // from early in the run, a conflict XI aimed at whoever is
        // transacting on the line once the first abort lands, and a
        // spurious abort shortly after that conflict fired.
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
        spurious.line = hot_line; // untargeted: resolve the holder
        plan.scenario.push_back(spurious);
    }
    return plan;
}

/** The workload's most contended line (scenario/targeted anchor). */
Addr
hotLineOf(const std::string &wl)
{
    if (wl == "list_set")
        return workload::listBase;
    if (wl == "hashtable")
        return workload::hashTableBase;
    return workload::queueBase;
}

/** CPUs of every chaos machine (a point's runPoints weight). */
constexpr unsigned chaosCpus = 4;

/** Watchdog window: generous against backoff, tiny against hangs. */
constexpr Cycles watchdogWindow = 2'000'000;

/**
 * Run workload @p wl for @p iterations per CPU with op logging on
 * under @p mcfg. Its `oracle` is the full verdict: the structure
 * (for the list set, sortedness and length too), the history, the
 * watchdog and the hot-path indexes.
 */
workload::RunSummary
runWorkload(const std::string &wl, unsigned iterations,
            const sim::MachineConfig &mcfg)
{
    using namespace ztx::workload;
    if (wl == "list_set") {
        ListSetBenchConfig cfg;
        cfg.cpus = chaosCpus;
        cfg.useElision = true;
        cfg.iterations = iterations;
        cfg.opLog = true;
        cfg.machine = mcfg;
        return runListSetBench(cfg);
    }
    if (wl == "hashtable") {
        HashTableBenchConfig cfg;
        cfg.cpus = chaosCpus;
        cfg.useElision = true;
        cfg.iterations = iterations;
        cfg.opLog = true;
        cfg.machine = mcfg;
        return runHashTableBench(cfg);
    }
    QueueBenchConfig cfg;
    cfg.cpus = chaosCpus;
    cfg.useConstrainedTx = true;
    cfg.iterations = iterations;
    cfg.opLog = true;
    cfg.machine = mcfg;
    return runQueueBench(cfg);
}

/**
 * Append the chaos record of one point: the shared result fields,
 * the point's identity and verdicts, its fault plan, and exactly one
 * history-checker section — `order_infer` (the O(n log n) oracle
 * inferred the order) or `lincheck` (DFS fallback / truncated /
 * protocol error), never both; json_check enforces this shape.
 */
void
addPoint(bench::JsonReport &report, const workload::RunSummary &res,
         const std::string &wl, const char *mix, double rate_scale,
         const inject::FaultPlan &plan)
{
    Json rec = Json::object();
    rec["workload"] = wl;
    rec["mix"] = mix;
    rec["rate_scale"] = rate_scale;
    rec["oracle_ok"] = res.oracle.ok;
    rec["watchdog_fired"] = res.watchdogFired;
    rec["oracle_summary"] = res.oracle.summary();
    rec["op_log"] = true;
    if (res.orderInfer.inferred) {
        rec["order_infer"] = inject::orderInferJson(res.orderInfer);
    } else {
        Json lc = inject::linVerdictJson(res.lincheck);
        if (!res.orderInfer.fallbackReason.empty())
            lc["fallback_reason"] = res.orderInfer.fallbackReason;
        rec["lincheck"] = std::move(lc);
    }
    rec["fault_plan"] = inject::faultPlanJson(plan);
    report.addResult(res, std::move(rec));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ztx::workload;

    bench::JsonReport report("chaos", argc, argv);
    report.setMachineConfig(bench::benchMachine());
    const unsigned iters = bench::benchIterations();
    report.meta()["iterations"] = iters;
    report.meta()["watchdog_cycles"] =
        std::uint64_t(watchdogWindow);

    std::printf("# Chaos sweep: oracle-checked workloads under "
                "fault injection\n");
    std::printf("# %-10s %-10s %-5s %10s %8s %8s  %s\n", "workload",
                "mix", "scale", "thrpt", "commits", "aborts",
                "verdict");

    const std::vector<Mix> mixes = {
        {"none", 0.0},       {"spurious", 1.0},
        {"xi_storm", 1.0},   {"squeeze", 1.0},
        {"interrupts", 1.0}, {"delayed_xi", 1.0},
        {"targeted", 1.0},   {"poison", 1.0},
        {"scenario", 1.0},   {"all", 0.5},
        {"all", 1.0},        {"all", 2.0},
    };
    const std::vector<std::string> workloads = {"list_set",
                                                "hashtable",
                                                "queue"};

    // The sweep's points: every mix on every workload, then one
    // large-history point per workload: ~100k operations, a scale
    // where the DFS fallback would give up ("unchecked") but order
    // inference still returns a definitive verdict. Its mild
    // spurious-abort mix keeps the retry machinery honest without
    // risking a watchdog halt that would leave operations pending.
    struct Point
    {
        std::string wl;
        const char *mix;
        double scale;
        unsigned iterations;
        inject::FaultPlan plan;
    };
    std::vector<Point> points;
    for (const auto &wl : workloads) {
        for (const auto &mix : mixes)
            points.push_back({wl, mix.name, mix.scale, iters,
                              mixPlan(mix.name, mix.scale,
                                      hotLineOf(wl))});
    }
    const std::size_t large_begin = points.size();
    for (const auto &wl : workloads) {
        // 4 CPUs x 25000 operations, or x 12500 queue iterations
        // of an enqueue plus a dequeue: ~100k operations each.
        points.push_back({wl, "large_history", 0.25,
                          wl == "queue" ? 12500u : 25000u,
                          mixPlan("spurious", 0.25, hotLineOf(wl))});
    }

    const auto results = bench::runPoints(
        std::vector<unsigned>(points.size(), chaosCpus), [&](std::size_t i) {
            sim::MachineConfig mcfg = bench::benchMachine();
            mcfg.faults = points[i].plan;
            mcfg.watchdogCycles = watchdogWindow;
            return runWorkload(points[i].wl, points[i].iterations,
                               mcfg);
        });

    bool all_ok = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &point = points[i];
        const auto &res = results[i];
        bool point_ok = false;
        if (i < large_begin) {
            // A non-linearizable history or a watchdog firing
            // already failed the oracle (the runner folds both in);
            // an *unchecked* history means the log or the checker
            // gave up — fail the point rather than under-report. A
            // *truncated* log is an explicit, expected verdict (the
            // ring overflowed), not a violation: the point passes
            // so long as the structure oracle is clean.
            point_ok = res.oracle.ok && (res.lincheck.checked ||
                                         res.lincheck.truncated);
            std::printf("  %-10s %-10s %-5.2g %10.5f %8llu %8llu  "
                        "%s%s\n",
                        point.wl.c_str(), point.mix, point.scale,
                        res.throughput,
                        (unsigned long long)res.txCommits,
                        (unsigned long long)res.txAborts,
                        res.watchdogFired ? "WATCHDOG " : "",
                        res.oracle.summary().c_str());
        } else {
            // The whole point of the scale: a definitive verdict
            // from the inferred order. A fallback here (pending ops,
            // version gaps) or an unchecked verdict fails the point.
            point_ok = res.oracle.ok && res.lincheck.checked &&
                       res.orderInfer.inferred;
            std::printf(
                "  %-10s %-10s %-5s %10.5f %8llu %8llu  "
                "%s%s [order_infer: %llu ops, %llu edges%s]\n",
                point.wl.c_str(), "large", "0.25", res.throughput,
                (unsigned long long)res.txCommits,
                (unsigned long long)res.txAborts,
                res.watchdogFired ? "WATCHDOG " : "",
                res.oracle.summary().c_str(),
                (unsigned long long)res.orderInfer.orderLength,
                (unsigned long long)(res.orderInfer.versionEdges +
                                     res.orderInfer.programEdges),
                res.orderInfer.inferred ? "" : " FALLBACK");
        }
        all_ok = all_ok && point_ok;
        addPoint(report, res, point.wl, point.mix, point.scale,
                 point.plan);
    }

    if (!report.write())
        return 1;
    if (!all_ok) {
        std::fprintf(stderr,
                     "chaos: oracle violation or watchdog firing "
                     "detected (see table above)\n");
        return 2;
    }
    std::printf("# all points consistent; no watchdog firings\n");
    return 0;
}
