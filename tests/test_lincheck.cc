/**
 * @file
 * The operation-history linearizability checker (inject/lincheck):
 * directed accept/reject histories per ADT (lost update, duplicate
 * dequeue, stale read, FIFO violations, probe-bound puts), pending
 * (maybe-completed) operation semantics, malformed-history and
 * state-limit handling, a property test over randomly generated
 * sequential histories with jittered windows, and the ISA-level
 * OPLOGB/OPLOGE recording plumbing (zero cycle cost, watchdog
 * pending-op diagnostics).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hh"
#include "inject/lincheck.hh"
#include "isa/assembler.hh"
#include "workload/op_log.hh"
#include "workload/report.hh"
#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using inject::LinOp;
using inject::LinOpCode;
using inject::LinVerdict;

LinOp
mk(CpuId cpu, std::uint32_t seq, Cycles inv, Cycles resp,
   LinOpCode code, std::uint64_t arg, std::uint64_t result)
{
    LinOp op;
    op.cpu = cpu;
    op.seq = seq;
    op.invoke = inv;
    op.response = resp;
    op.code = code;
    op.arg = arg;
    op.result = result;
    return op;
}

LinOp
mkPending(CpuId cpu, std::uint32_t seq, Cycles inv, LinOpCode code,
          std::uint64_t arg)
{
    LinOp op;
    op.cpu = cpu;
    op.seq = seq;
    op.invoke = inv;
    op.pending = true;
    op.code = code;
    op.arg = arg;
    return op;
}

// ---------------------------------------------------------------
// Set histories.
// ---------------------------------------------------------------

TEST(LincheckSet, SequentialHistoryAccepts)
{
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::SetInsert, 5, 1),
        mk(0, 1, 20, 30, LinOpCode::SetLookup, 5, 1),
        mk(0, 2, 40, 50, LinOpCode::SetDelete, 5, 1),
        mk(0, 3, 60, 70, LinOpCode::SetLookup, 5, 0),
    };
    const LinVerdict v = inject::checkSetLinearizable(h, {});
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_TRUE(v.linearizable) << v.reason;
    EXPECT_EQ(v.numOps, 4u);
    EXPECT_EQ(v.numPending, 0u);
    // A fully sequential history is one forced pass: one
    // specification apply per operation, no branching.
    EXPECT_EQ(v.statesExplored, 4u);
    EXPECT_TRUE(v.window.empty());
}

TEST(LincheckSet, EmptyHistoryAccepts)
{
    const LinVerdict v = inject::checkSetLinearizable({}, {1, 2});
    ASSERT_TRUE(v.checked);
    EXPECT_TRUE(v.linearizable);
}

TEST(LincheckSet, OverlappingReadResolvedByOrderChoice)
{
    // The lookup runs entirely inside the insert's window; it can
    // only return 1 if the insert linearizes first — which the
    // checker must discover.
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 100, LinOpCode::SetInsert, 5, 1),
        mk(1, 0, 10, 20, LinOpCode::SetLookup, 5, 1),
    };
    const LinVerdict v = inject::checkSetLinearizable(h, {});
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_TRUE(v.linearizable) << v.reason;
}

TEST(LincheckSet, LostUpdateRejected)
{
    // Two non-overlapping inserts of the same key both claim they
    // applied: the second must have observed the first (classic
    // lost-update signature).
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::SetInsert, 7, 1),
        mk(1, 0, 20, 30, LinOpCode::SetInsert, 7, 1),
    };
    const LinVerdict v = inject::checkSetLinearizable(h, {});
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_FALSE(v.linearizable);
    EXPECT_FALSE(v.reason.empty());
    EXPECT_FALSE(v.window.empty());
}

TEST(LincheckSet, StaleReadRejected)
{
    // The insert committed (responded) before the lookup was even
    // invoked, yet the lookup missed the key.
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::SetInsert, 9, 1),
        mk(1, 0, 20, 30, LinOpCode::SetLookup, 9, 0),
    };
    const LinVerdict v = inject::checkSetLinearizable(h, {});
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_FALSE(v.linearizable);
}

TEST(LincheckSet, InitialStateRespected)
{
    const std::vector<LinOp> hit = {
        mk(0, 0, 0, 10, LinOpCode::SetLookup, 3, 1),
    };
    EXPECT_TRUE(inject::checkSetLinearizable(hit, {3}).linearizable);

    const std::vector<LinOp> dup = {
        mk(0, 0, 0, 10, LinOpCode::SetInsert, 3, 1),
    };
    const LinVerdict v = inject::checkSetLinearizable(dup, {3});
    ASSERT_TRUE(v.checked);
    EXPECT_FALSE(v.linearizable); // already present: must return 0
}

TEST(LincheckSet, PendingInsertExplainsEitherOutcome)
{
    // An insert in flight at the halt may or may not have taken
    // effect: a later lookup is allowed to see both worlds.
    for (const std::uint64_t seen : {0u, 1u}) {
        const std::vector<LinOp> h = {
            mkPending(0, 0, 0, LinOpCode::SetInsert, 5),
            mk(1, 0, 10, 20, LinOpCode::SetLookup, 5, seen),
        };
        const LinVerdict v = inject::checkSetLinearizable(h, {});
        ASSERT_TRUE(v.checked) << v.reason;
        EXPECT_TRUE(v.linearizable)
            << "lookup result " << seen << ": " << v.reason;
        EXPECT_EQ(v.numPending, 1u);
    }
}

TEST(LincheckSet, PendingDeleteExplainsDoubleInsert)
{
    // A pending delete whose window overlaps the second insert can
    // linearize between the two inserts and explain the history...
    const std::vector<LinOp> ok = {
        mk(0, 0, 0, 10, LinOpCode::SetInsert, 5, 1),
        mk(1, 0, 20, 30, LinOpCode::SetInsert, 5, 1),
        mkPending(2, 0, 5, LinOpCode::SetDelete, 5),
    };
    EXPECT_TRUE(inject::checkSetLinearizable(ok, {}).linearizable);

    // ... but not when it was invoked only after the second insert
    // responded: real-time order pins it too late to help.
    const std::vector<LinOp> bad = {
        mk(0, 0, 0, 10, LinOpCode::SetInsert, 5, 1),
        mk(1, 0, 20, 30, LinOpCode::SetInsert, 5, 1),
        mkPending(2, 0, 40, LinOpCode::SetDelete, 5),
    };
    const LinVerdict v = inject::checkSetLinearizable(bad, {});
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_FALSE(v.linearizable);
}

TEST(LincheckSet, MalformedOverlapOnOneCpuUnchecked)
{
    // One CPU cannot have two operations in flight at once; such a
    // history is a recording bug, not a linearizability verdict.
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 50, LinOpCode::SetInsert, 1, 1),
        mk(0, 1, 10, 60, LinOpCode::SetInsert, 2, 1),
    };
    const LinVerdict v = inject::checkSetLinearizable(h, {});
    EXPECT_FALSE(v.checked);
    EXPECT_NE(v.reason.find("malformed"), std::string::npos);
}

TEST(LincheckSet, BackwardsWindowUnchecked)
{
    const std::vector<LinOp> h = {
        mk(0, 0, 50, 10, LinOpCode::SetLookup, 1, 0),
    };
    EXPECT_FALSE(inject::checkSetLinearizable(h, {}).checked);
}

TEST(LincheckSet, StateLimitGivesUpUnchecked)
{
    // Eight fully-overlapping inserts plus one impossible lookup:
    // no linearization exists, and finding that out costs far more
    // than a ten-state budget.
    std::vector<LinOp> h;
    for (unsigned i = 0; i < 8; ++i) {
        h.push_back(mk(i, 0, 0, 1000, LinOpCode::SetInsert,
                       100 + i, 1));
    }
    h.push_back(mk(8, 0, 2000, 2100, LinOpCode::SetLookup, 99, 1));
    inject::LinCheckLimits limits;
    limits.maxStates = 10;
    const LinVerdict v = inject::checkSetLinearizable(h, {}, limits);
    EXPECT_FALSE(v.checked);
    EXPECT_NE(v.reason.find("state limit"), std::string::npos);
}

// ---------------------------------------------------------------
// Queue histories.
// ---------------------------------------------------------------

TEST(LincheckQueue, FifoAccepts)
{
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::QueueEnqueue, 1, 1),
        mk(0, 1, 20, 30, LinOpCode::QueueEnqueue, 2, 2),
        mk(1, 0, 40, 50, LinOpCode::QueueDequeue, 0, 1),
        mk(1, 1, 60, 70, LinOpCode::QueueDequeue, 0, 2),
        mk(1, 2, 80, 90, LinOpCode::QueueDequeue, 0, 0), // empty
    };
    const LinVerdict v = inject::checkQueueLinearizable(h, {});
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_TRUE(v.linearizable) << v.reason;
}

TEST(LincheckQueue, DuplicateDequeueRejected)
{
    // One enqueue of 7, two dequeues both observing 7: atomicity of
    // the head advance was broken.
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::QueueEnqueue, 7, 7),
        mk(1, 0, 20, 30, LinOpCode::QueueDequeue, 0, 7),
        mk(2, 0, 40, 50, LinOpCode::QueueDequeue, 0, 7),
    };
    const LinVerdict v = inject::checkQueueLinearizable(h, {});
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_FALSE(v.linearizable);
}

TEST(LincheckQueue, FifoOrderViolationRejected)
{
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::QueueEnqueue, 1, 1),
        mk(0, 1, 20, 30, LinOpCode::QueueEnqueue, 2, 2),
        mk(1, 0, 40, 50, LinOpCode::QueueDequeue, 0, 2), // skipped 1
    };
    const LinVerdict v = inject::checkQueueLinearizable(h, {});
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_FALSE(v.linearizable);
}

TEST(LincheckQueue, FalseEmptyRejected)
{
    const std::vector<LinOp> deq0 = {
        mk(0, 0, 0, 10, LinOpCode::QueueDequeue, 0, 0),
    };
    // Initial value present: claiming empty is a lost element.
    const LinVerdict v = inject::checkQueueLinearizable(deq0, {5});
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_FALSE(v.linearizable);

    const std::vector<LinOp> deq5 = {
        mk(0, 0, 0, 10, LinOpCode::QueueDequeue, 0, 5),
    };
    EXPECT_TRUE(
        inject::checkQueueLinearizable(deq5, {5}).linearizable);
}

TEST(LincheckQueue, ConcurrentEnqueueOrderIsFree)
{
    // Two overlapping enqueues may linearize either way; the
    // dequeues observing 2 then 1 force the non-program order.
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 100, LinOpCode::QueueEnqueue, 1, 1),
        mk(1, 0, 0, 100, LinOpCode::QueueEnqueue, 2, 2),
        mk(2, 0, 200, 210, LinOpCode::QueueDequeue, 0, 2),
        mk(2, 1, 220, 230, LinOpCode::QueueDequeue, 0, 1),
    };
    const LinVerdict v = inject::checkQueueLinearizable(h, {});
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_TRUE(v.linearizable) << v.reason;
}

TEST(LincheckQueue, PendingDequeueMayHaveTakenValue)
{
    // A dequeue in flight at the halt may have removed the only
    // element, so a later dequeue legitimately finds the queue
    // empty — and equally legitimately finds the value.
    for (const std::uint64_t later : {0u, 5u}) {
        const std::vector<LinOp> h = {
            mk(0, 0, 0, 10, LinOpCode::QueueEnqueue, 5, 5),
            mkPending(1, 0, 20, LinOpCode::QueueDequeue, 0),
            mk(2, 0, 40, 50, LinOpCode::QueueDequeue, 0, later),
        };
        const LinVerdict v = inject::checkQueueLinearizable(h, {});
        ASSERT_TRUE(v.checked) << v.reason;
        EXPECT_TRUE(v.linearizable)
            << "later dequeue " << later << ": " << v.reason;
    }
}

// ---------------------------------------------------------------
// Open-addressed map histories.
// ---------------------------------------------------------------

LinVerdict
checkMap(const std::vector<LinOp> &h,
         std::vector<std::uint64_t> slots = std::vector<
             std::uint64_t>(10, 0))
{
    // 8 buckets + 2 probe-tail slots, home slot = key % 8.
    return inject::checkMapLinearizable(
        h, slots, 8, 2,
        [](std::uint64_t k) { return k % 8; });
}

TEST(LincheckMap, PutThenGetAccepts)
{
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::MapPut, 3, 1),
        mk(0, 1, 20, 30, LinOpCode::MapGet, 3, 3),
        mk(0, 2, 40, 50, LinOpCode::MapGet, 4, 0), // miss
    };
    const LinVerdict v = checkMap(h);
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_TRUE(v.linearizable) << v.reason;
}

TEST(LincheckMap, StaleGetRejected)
{
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::MapPut, 3, 1),
        mk(1, 0, 20, 30, LinOpCode::MapGet, 3, 0), // missed the put
    };
    const LinVerdict v = checkMap(h);
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_FALSE(v.linearizable);
}

TEST(LincheckMap, TornValueRejected)
{
    // The workload stores value == key; any other observed value is
    // a torn or lost update.
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::MapPut, 3, 1),
        mk(1, 0, 20, 30, LinOpCode::MapGet, 3, 99),
    };
    const LinVerdict v = checkMap(h);
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_FALSE(v.linearizable);
}

TEST(LincheckMap, ProbeBoundDropsPut)
{
    // Keys 3, 11, 19 all hash to bucket 3 with a 2-slot probe
    // window: the third put must report it was dropped.
    const std::vector<LinOp> dropped = {
        mk(0, 0, 0, 10, LinOpCode::MapPut, 3, 1),
        mk(0, 1, 20, 30, LinOpCode::MapPut, 11, 1),
        mk(0, 2, 40, 50, LinOpCode::MapPut, 19, 0),
    };
    EXPECT_TRUE(checkMap(dropped).linearizable);

    const std::vector<LinOp> claimed = {
        mk(0, 0, 0, 10, LinOpCode::MapPut, 3, 1),
        mk(0, 1, 20, 30, LinOpCode::MapPut, 11, 1),
        mk(0, 2, 40, 50, LinOpCode::MapPut, 19, 1), // impossible
    };
    const LinVerdict v = checkMap(claimed);
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_FALSE(v.linearizable);
}

TEST(LincheckMap, InitialSlotsRespected)
{
    std::vector<std::uint64_t> slots(10, 0);
    slots[5] = 5; // key 5 prefilled in its home slot
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::MapGet, 5, 5),
    };
    EXPECT_TRUE(checkMap(h, slots).linearizable);
}

// ---------------------------------------------------------------
// Property test: generated sequential set histories.
// ---------------------------------------------------------------

TEST(LincheckProperty, JitterAcceptsAndMutationRejects)
{
    constexpr unsigned numOps = 24;
    constexpr unsigned rounds = 12;

    for (std::uint64_t round = 1; round <= rounds; ++round) {
        Rng rng(round * 0x9E3779B97F4A7C15ULL);

        // A random initial set and a random valid sequential
        // history against it, one operation every 10 cycles.
        std::set<std::uint64_t> model;
        std::vector<std::uint64_t> initial;
        for (std::uint64_t k = 1; k <= 8; ++k) {
            if (rng.nextBool(0.5)) {
                model.insert(k);
                initial.push_back(k);
            }
        }
        struct SeqOp
        {
            Cycles t;
            LinOpCode code;
            std::uint64_t arg, result;
        };
        std::vector<SeqOp> seq;
        for (unsigned i = 0; i < numOps; ++i) {
            SeqOp op;
            op.t = 100 + 10 * Cycles(i);
            op.code = LinOpCode(rng.nextBounded(3));
            op.arg = 1 + rng.nextBounded(12);
            const bool present = model.count(op.arg) != 0;
            switch (op.code) {
              case LinOpCode::SetLookup:
                op.result = present ? 1 : 0;
                break;
              case LinOpCode::SetInsert:
                op.result = present ? 0 : 1;
                model.insert(op.arg);
                break;
              default:
                op.result = present ? 1 : 0;
                model.erase(op.arg);
                break;
            }
            seq.push_back(op);
        }

        // Accept variant: widen every window by up to 15 cycles on
        // each side (overlapping neighbours), spread across CPUs so
        // per-CPU operations stay sequential. The true order is
        // still a valid linearization, so this must accept.
        std::vector<LinOp> jittered;
        std::vector<Cycles> cpu_last;
        std::vector<std::uint32_t> cpu_seq;
        for (const SeqOp &op : seq) {
            const Cycles inv = op.t - rng.nextBounded(16);
            const Cycles resp = op.t + rng.nextBounded(16);
            std::size_t cpu = cpu_last.size();
            for (std::size_t c = 0; c < cpu_last.size(); ++c) {
                if (cpu_last[c] <= inv) {
                    cpu = c;
                    break;
                }
            }
            if (cpu == cpu_last.size()) {
                cpu_last.push_back(0);
                cpu_seq.push_back(0);
            }
            cpu_last[cpu] = resp;
            jittered.push_back(mk(CpuId(cpu), cpu_seq[cpu]++, inv,
                                  resp, op.code, op.arg,
                                  op.result));
        }
        const LinVerdict ok =
            inject::checkSetLinearizable(jittered, initial);
        ASSERT_TRUE(ok.checked) << "round " << round << ": "
                                << ok.reason;
        EXPECT_TRUE(ok.linearizable)
            << "round " << round << ": " << ok.reason;

        // Reject variant: disjoint windows force the one true order,
        // then a single flipped result makes it inexplicable.
        std::vector<LinOp> mutated;
        for (unsigned i = 0; i < numOps; ++i) {
            const SeqOp &op = seq[i];
            mutated.push_back(mk(0, i, op.t - rng.nextBounded(5),
                                 op.t + rng.nextBounded(5), op.code,
                                 op.arg, op.result));
        }
        mutated[rng.nextBounded(numOps)].result ^= 1;
        const LinVerdict bad =
            inject::checkSetLinearizable(mutated, initial);
        ASSERT_TRUE(bad.checked) << "round " << round << ": "
                                 << bad.reason;
        EXPECT_FALSE(bad.linearizable) << "round " << round;
        EXPECT_FALSE(bad.window.empty());
    }
}

// ---------------------------------------------------------------
// Recording plumbing: OPLOGB/OPLOGE through a real machine.
// ---------------------------------------------------------------

TEST(OpLogIsa, RecordsWithZeroCycleCost)
{
    const auto build = [](bool logged) {
        isa::Assembler as;
        as.lhi(1, 5);
        if (logged)
            as.oplogb(2, 1, 3);
        as.lhi(2, 6);
        if (logged)
            as.oploge(2);
        as.halt();
        return as.finish();
    };

    const isa::Program plain = build(false);
    const isa::Program logged = build(true);

    sim::Machine m1(smallConfig(1));
    m1.setProgram(0, &plain);
    const Cycles base = m1.run();

    workload::OpLog log(1);
    sim::Machine m2(smallConfig(1));
    m2.cpu(0).setOpRecorder(&log);
    m2.setProgram(0, &logged);
    const Cycles withLog = m2.run();

    // The pseudo-ops are free: identical cycle counts.
    EXPECT_EQ(base, withLog);

    ASSERT_EQ(log.ops(0).size(), 1u);
    const workload::OpRecord &rec = log.ops(0).front();
    EXPECT_TRUE(rec.completed);
    EXPECT_EQ(rec.code, 2u);
    EXPECT_EQ(rec.a0, 5u); // R1 at invoke
    EXPECT_EQ(rec.result, 6u); // R2 at response
    EXPECT_LE(rec.invoke, rec.response);
    EXPECT_EQ(log.protocolErrors(), 0u);
    EXPECT_FALSE(log.truncated());
}

TEST(OpLogIsa, WithoutRecorderOpLogIsNop)
{
    isa::Assembler as;
    as.lhi(1, 5);
    as.oplogb(0, 1);
    as.oploge(1);
    as.halt();
    const isa::Program p = as.finish();

    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run();
    EXPECT_TRUE(m.allHalted());
    EXPECT_EQ(m.cpu(0).gr(1), 5u);
}

TEST(OpLogIsa, PendingOpSurfacesInWatchdogDiagnosis)
{
    // An operation invoked but never responded when the watchdog
    // halts the machine must appear as the CPU's pending window in
    // the diagnosis bundle.
    isa::Assembler as;
    as.lhi(1, 42);
    as.oplogb(1, 1);
    as.label("spin");
    as.j("spin"); // livelock inside the operation
    const isa::Program p = as.finish();

    sim::MachineConfig cfg = smallConfig(1);
    cfg.watchdogCycles = 5'000;
    sim::Machine m(cfg);
    workload::OpLog log(1);
    m.cpu(0).setOpRecorder(&log);
    m.setProgram(0, &p);
    m.run(1'000'000);

    EXPECT_TRUE(m.watchdogFired());
    ASSERT_EQ(log.ops(0).size(), 1u);
    EXPECT_FALSE(log.ops(0).front().completed);

    const std::string report = m.watchdogReport().dump();
    EXPECT_NE(report.find("pending_op"), std::string::npos);
    EXPECT_NE(report.find("invoke_cycle"), std::string::npos);
}

/**
 * checkRunHistory() over a log that cannot vouch for its history:
 * the history oracle must never be reached.
 */
bool
checkUncheckable(workload::RunSummary &res, const workload::OpLog &log)
{
    return workload::checkRunHistory(
        res, &log,
        [](const workload::OpRecord &rec, LinOp &op) {
            op.code = LinOpCode(rec.code);
            op.arg = rec.a0;
            op.result = rec.result;
        },
        [](const std::vector<LinOp> &) {
            ADD_FAILURE() << "history oracle ran on a tainted log";
            return inject::OrderInferReport{};
        });
}

TEST(OpLogIsa, ProtocolErrorsCounted)
{
    isa::Assembler as;
    as.lhi(1, 1);
    as.oploge(1); // response with nothing in flight
    as.oplogb(0, 1);
    as.oplogb(0, 1); // double invoke
    as.halt();
    const isa::Program p = as.finish();

    workload::OpLog log(1);
    sim::Machine m(smallConfig(1));
    m.cpu(0).setOpRecorder(&log);
    m.setProgram(0, &p);
    m.run();
    EXPECT_EQ(log.protocolErrors(), 2u);

    // A tainted log must refuse to produce a verdict, and the
    // refusal alone fails no check.
    workload::RunSummary res;
    EXPECT_TRUE(checkUncheckable(res, log));
    EXPECT_FALSE(res.lincheck.checked);
    EXPECT_FALSE(res.lincheck.truncated);
    EXPECT_NE(res.lincheck.reason.find("protocol"), std::string::npos);
    EXPECT_EQ(res.orderInfer.fallbackReason, res.lincheck.reason);
    EXPECT_TRUE(res.oracle.ok) << res.oracle.summary();
}

TEST(OpLogIsa, OverflowMarksTruncation)
{
    workload::OpLog log(1, 2); // capacity two records
    for (unsigned i = 0; i < 3; ++i) {
        log.opInvoke(0, Cycles(10 * i), 0, i, 0);
        log.opResponse(0, Cycles(10 * i + 5), 1);
    }
    EXPECT_TRUE(log.truncated());
    EXPECT_EQ(log.dropped(0), 1u);
    EXPECT_EQ(log.ops(0).size(), 2u);

    workload::RunSummary res;
    EXPECT_TRUE(checkUncheckable(res, log));
    EXPECT_TRUE(res.lincheck.truncated);
    EXPECT_FALSE(res.lincheck.checked);
    EXPECT_EQ(res.lincheck.numOps, 2u);
    EXPECT_NE(res.lincheck.reason.find("truncated"), std::string::npos);
    EXPECT_EQ(res.orderInfer.fallbackReason, res.lincheck.reason);
    EXPECT_TRUE(res.oracle.ok) << res.oracle.summary();
}

} // namespace
