/**
 * @file
 * The version-order inference oracle (inject/order_infer): directed
 * accept/violation histories per ADT, every fallback route (pending
 * operations, missing version batches, duplicated and gapped write
 * versions, reads of uninstalled versions, cyclic edges, real-time
 * contradictions, corrupt-log replay failures refuted by the DFS),
 * DFS/order-infer equivalence and version-log jitter property
 * tests, the OPLOGV recording plumbing (zero cycle cost, commit
 * footprints, constrained-region legality, lock-path ordering), and
 * end-to-end workload runs asserting the inferred path is taken
 * deterministically — plus the op-log truncation and watchdog
 * pending-op regressions.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hh"
#include "inject/fault_plan.hh"
#include "inject/lincheck.hh"
#include "inject/order_infer.hh"
#include "isa/assembler.hh"
#include "workload/hashtable.hh"
#include "workload/list_set.hh"
#include "workload/op_log.hh"
#include "workload/queue.hh"
#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using inject::LinOp;
using inject::LinOpCode;
using inject::LinVerdict;
using inject::OrderInferReport;
using inject::VersionAccess;

/** Shared object ids for the hand-built histories. */
constexpr Addr objA = 0x1000;
constexpr Addr objB = 0x2000;

LinOp
mk(CpuId cpu, std::uint32_t seq, Cycles inv, Cycles resp,
   LinOpCode code, std::uint64_t arg, std::uint64_t result,
   std::vector<VersionAccess> accesses)
{
    LinOp op;
    op.cpu = cpu;
    op.seq = seq;
    op.invoke = inv;
    op.response = resp;
    op.code = code;
    op.arg = arg;
    op.result = result;
    op.accesses = std::move(accesses);
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

/** Read access of @p obj at @p ver. */
VersionAccess
rd(Addr obj, std::uint64_t ver)
{
    return {obj, ver, false};
}

/** Write access installing @p ver of @p obj. */
VersionAccess
wr(Addr obj, std::uint64_t ver)
{
    return {obj, ver, true};
}

// ---------------------------------------------------------------
// Directed histories: inference accepts and detects violations.
// ---------------------------------------------------------------

TEST(OrderInferSet, SequentialHistoryInfersAndAccepts)
{
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::SetInsert, 5, 1, {wr(objA, 1)}),
        mk(0, 1, 20, 30, LinOpCode::SetLookup, 5, 1, {rd(objA, 1)}),
        mk(0, 2, 40, 50, LinOpCode::SetDelete, 5, 1, {wr(objA, 2)}),
        mk(0, 3, 60, 70, LinOpCode::SetLookup, 5, 0, {rd(objA, 2)}),
    };
    const OrderInferReport r = inject::inferSetLinearizable(h, {});
    EXPECT_TRUE(r.inferred) << r.fallbackReason;
    ASSERT_TRUE(r.verdict.checked) << r.verdict.reason;
    EXPECT_TRUE(r.verdict.linearizable) << r.verdict.reason;
    EXPECT_EQ(r.orderLength, 4u);
    EXPECT_EQ(r.versionRecords, 4u);
    EXPECT_EQ(r.programEdges, 3u);
    // W1->R1, R1->W2, W1->W2, W2->R2.
    EXPECT_EQ(r.versionEdges, 4u);
    // Replay is one spec apply per operation: linear, not a search.
    EXPECT_EQ(r.verdict.statesExplored, 4u);
}

TEST(OrderInferSet, EmptyHistoryAccepts)
{
    const OrderInferReport r =
        inject::inferSetLinearizable({}, {1, 2});
    EXPECT_TRUE(r.inferred);
    ASSERT_TRUE(r.verdict.checked);
    EXPECT_TRUE(r.verdict.linearizable);
}

TEST(OrderInferSet, VersionsResolveOverlappingWindows)
{
    // The lookup runs entirely inside the insert's window; the DFS
    // must branch to discover the order, the versions simply state
    // it: the lookup read version 1, so the insert came first.
    const std::vector<LinOp> first = {
        mk(0, 0, 0, 100, LinOpCode::SetInsert, 5, 1,
           {wr(objA, 1)}),
        mk(1, 0, 10, 20, LinOpCode::SetLookup, 5, 1,
           {rd(objA, 1)}),
    };
    const OrderInferReport a =
        inject::inferSetLinearizable(first, {});
    EXPECT_TRUE(a.inferred) << a.fallbackReason;
    EXPECT_TRUE(a.verdict.linearizable) << a.verdict.reason;
    ASSERT_EQ(a.order.size(), 2u);
    EXPECT_EQ(a.order[0], 0u); // insert linearized first

    // Same windows, lookup read version 0: it came first and the
    // miss is the only correct result.
    const std::vector<LinOp> second = {
        mk(0, 0, 0, 100, LinOpCode::SetInsert, 5, 1,
           {wr(objA, 1)}),
        mk(1, 0, 10, 20, LinOpCode::SetLookup, 5, 0,
           {rd(objA, 0)}),
    };
    const OrderInferReport b =
        inject::inferSetLinearizable(second, {});
    EXPECT_TRUE(b.inferred) << b.fallbackReason;
    EXPECT_TRUE(b.verdict.linearizable) << b.verdict.reason;
    ASSERT_EQ(b.order.size(), 2u);
    EXPECT_EQ(b.order[0], 1u); // lookup linearized first
}

TEST(OrderInferSet, LostUpdateIsADefinitiveViolation)
{
    // Both inserts of the same key claim they applied and the
    // version chain orders them: replaying the inferred order hits
    // the impossible second insert. The DFS refutation also fails
    // (no order explains it), so the violation stands as inferred.
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::SetInsert, 7, 1, {wr(objA, 1)}),
        mk(1, 0, 20, 30, LinOpCode::SetInsert, 7, 1,
           {wr(objA, 2)}),
    };
    const OrderInferReport r = inject::inferSetLinearizable(h, {});
    EXPECT_TRUE(r.inferred) << r.fallbackReason;
    ASSERT_TRUE(r.verdict.checked);
    EXPECT_FALSE(r.verdict.linearizable);
    EXPECT_NE(r.verdict.reason.find("inferred serial order"),
              std::string::npos);
    ASSERT_FALSE(r.verdict.window.empty());
    EXPECT_EQ(r.verdict.window.front().cpu, 1u);
}

TEST(OrderInferQueue, FifoInfersAndViolationDetected)
{
    const std::vector<LinOp> fifo = {
        mk(0, 0, 0, 10, LinOpCode::QueueEnqueue, 1, 1,
           {wr(objA, 1)}),
        mk(0, 1, 20, 30, LinOpCode::QueueEnqueue, 2, 2,
           {wr(objA, 2)}),
        mk(1, 0, 40, 50, LinOpCode::QueueDequeue, 0, 1,
           {wr(objA, 3)}),
        mk(1, 1, 60, 70, LinOpCode::QueueDequeue, 0, 2,
           {wr(objA, 4)}),
        mk(1, 2, 80, 90, LinOpCode::QueueDequeue, 0, 0,
           {rd(objA, 4)}),
    };
    const OrderInferReport ok =
        inject::inferQueueLinearizable(fifo, {});
    EXPECT_TRUE(ok.inferred) << ok.fallbackReason;
    EXPECT_TRUE(ok.verdict.linearizable) << ok.verdict.reason;

    // Duplicate dequeue: one element observed twice.
    const std::vector<LinOp> dup = {
        mk(0, 0, 0, 10, LinOpCode::QueueEnqueue, 7, 7,
           {wr(objA, 1)}),
        mk(1, 0, 20, 30, LinOpCode::QueueDequeue, 0, 7,
           {wr(objA, 2)}),
        mk(2, 0, 40, 50, LinOpCode::QueueDequeue, 0, 7,
           {wr(objA, 3)}),
    };
    const OrderInferReport bad =
        inject::inferQueueLinearizable(dup, {});
    ASSERT_TRUE(bad.verdict.checked);
    EXPECT_FALSE(bad.verdict.linearizable);
}

TEST(OrderInferMap, PutGetInfers)
{
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::MapPut, 3, 1, {wr(objA, 1)}),
        mk(1, 0, 20, 30, LinOpCode::MapGet, 3, 3, {rd(objA, 1)}),
        mk(1, 1, 40, 50, LinOpCode::MapGet, 4, 0, {rd(objB, 0)}),
    };
    const OrderInferReport r = inject::inferMapLinearizable(
        h, std::vector<std::uint64_t>(10, 0), 8, 2,
        [](std::uint64_t k) { return k % 8; });
    EXPECT_TRUE(r.inferred) << r.fallbackReason;
    ASSERT_TRUE(r.verdict.checked) << r.verdict.reason;
    EXPECT_TRUE(r.verdict.linearizable) << r.verdict.reason;
}

// ---------------------------------------------------------------
// Fallback routes: every history inference cannot vouch for must
// reach the DFS (and say why), never produce a wrong verdict.
// ---------------------------------------------------------------

TEST(OrderInferFallback, PendingOperationRoutesToDfs)
{
    const std::vector<LinOp> h = {
        mkPending(0, 0, 0, LinOpCode::SetInsert, 5),
        mk(1, 0, 10, 20, LinOpCode::SetLookup, 5, 1,
           {rd(objA, 1)}),
    };
    const OrderInferReport r = inject::inferSetLinearizable(h, {});
    EXPECT_FALSE(r.inferred);
    EXPECT_NE(r.fallbackReason.find("pending"), std::string::npos);
    // The DFS still produces the verdict: the in-flight insert may
    // have committed, which explains the lookup hit.
    ASSERT_TRUE(r.verdict.checked) << r.verdict.reason;
    EXPECT_TRUE(r.verdict.linearizable) << r.verdict.reason;
    EXPECT_EQ(r.verdict.numPending, 1u);
}

TEST(OrderInferFallback, MalformedOverlapRoutesToDfs)
{
    // Two operations in flight on one CPU: the shared history
    // validator rejects it before any version chain is built, and
    // the DFS refuses it the same way.
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 50, LinOpCode::SetInsert, 1, 1, {wr(objA, 1)}),
        mk(0, 1, 10, 60, LinOpCode::SetInsert, 2, 1, {wr(objB, 1)}),
    };
    const OrderInferReport r = inject::inferSetLinearizable(h, {});
    EXPECT_FALSE(r.inferred);
    EXPECT_NE(r.fallbackReason.find("malformed"), std::string::npos);
    EXPECT_FALSE(r.verdict.checked);
    EXPECT_NE(r.verdict.reason.find("malformed"), std::string::npos);
}

TEST(OrderInferFallback, MissingVersionBatchRoutesToDfs)
{
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::SetInsert, 5, 1, {}),
    };
    const OrderInferReport r = inject::inferSetLinearizable(h, {});
    EXPECT_FALSE(r.inferred);
    EXPECT_NE(r.fallbackReason.find("no version records"),
              std::string::npos);
    EXPECT_TRUE(r.verdict.checked);
    EXPECT_TRUE(r.verdict.linearizable);
}

TEST(OrderInferFallback, DuplicateInstalledVersionRoutesToDfs)
{
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::SetInsert, 5, 1, {wr(objA, 1)}),
        mk(1, 0, 20, 30, LinOpCode::SetDelete, 5, 1,
           {wr(objA, 1)}),
    };
    const OrderInferReport r = inject::inferSetLinearizable(h, {});
    EXPECT_FALSE(r.inferred);
    EXPECT_NE(r.fallbackReason.find("installed twice"),
              std::string::npos);
    EXPECT_TRUE(r.verdict.checked);
    EXPECT_TRUE(r.verdict.linearizable);
}

TEST(OrderInferFallback, VersionGapRoutesToDfs)
{
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::SetInsert, 5, 1, {wr(objA, 1)}),
        mk(1, 0, 20, 30, LinOpCode::SetDelete, 5, 1,
           {wr(objA, 3)}),
    };
    const OrderInferReport r = inject::inferSetLinearizable(h, {});
    EXPECT_FALSE(r.inferred);
    EXPECT_NE(r.fallbackReason.find("1..W write chain"),
              std::string::npos);
}

TEST(OrderInferFallback, ReadOfUninstalledVersionRoutesToDfs)
{
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::SetInsert, 5, 1, {wr(objA, 1)}),
        mk(1, 0, 20, 30, LinOpCode::SetLookup, 5, 1,
           {rd(objA, 5)}),
    };
    const OrderInferReport r = inject::inferSetLinearizable(h, {});
    EXPECT_FALSE(r.inferred);
    EXPECT_NE(r.fallbackReason.find("uninstalled version"),
              std::string::npos);
}

TEST(OrderInferFallback, VersionCycleRoutesToDfs)
{
    // op0 wrote A before op1 read it; op1 wrote B before op0 read
    // it: the version edges form a cycle no commit order satisfies.
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 100, LinOpCode::SetInsert, 1, 1,
           {wr(objA, 1), rd(objB, 1)}),
        mk(1, 0, 0, 100, LinOpCode::SetInsert, 2, 1,
           {wr(objB, 1), rd(objA, 1)}),
    };
    const OrderInferReport r = inject::inferSetLinearizable(h, {});
    EXPECT_FALSE(r.inferred);
    EXPECT_NE(r.fallbackReason.find("cycle"), std::string::npos);
    EXPECT_TRUE(r.verdict.checked);
    EXPECT_TRUE(r.verdict.linearizable);
}

TEST(OrderInferFallback, RealTimeContradictionRoutesToDfs)
{
    // The versions claim the insert committed before the lookup,
    // but the lookup responded before the insert was invoked. The
    // emission-time real-time check catches the contradiction and
    // the DFS (which trusts windows, not versions) decides.
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 10, LinOpCode::SetLookup, 5, 0, {rd(objA, 1)}),
        mk(1, 0, 20, 30, LinOpCode::SetInsert, 5, 1,
           {wr(objA, 1)}),
    };
    const OrderInferReport r = inject::inferSetLinearizable(h, {});
    EXPECT_FALSE(r.inferred);
    EXPECT_NE(r.fallbackReason.find("real-time"), std::string::npos);
    ASSERT_TRUE(r.verdict.checked);
    EXPECT_TRUE(r.verdict.linearizable);
}

TEST(OrderInferFallback, CorruptLogReplayFailureRefutedByDfs)
{
    // The history is genuinely linearizable (insert then lookup),
    // but a corrupted version log orders the lookup first, so the
    // replay fails. The DFS refutes the false violation and its
    // verdict wins, flagged as a version-log inconsistency.
    const std::vector<LinOp> h = {
        mk(0, 0, 0, 100, LinOpCode::SetInsert, 5, 1,
           {wr(objA, 1)}),
        mk(1, 0, 10, 20, LinOpCode::SetLookup, 5, 1,
           {rd(objA, 0)}),
    };
    const OrderInferReport r = inject::inferSetLinearizable(h, {});
    EXPECT_FALSE(r.inferred);
    EXPECT_NE(r.fallbackReason.find("inconsistent"),
              std::string::npos);
    ASSERT_TRUE(r.verdict.checked);
    EXPECT_TRUE(r.verdict.linearizable);
}

TEST(OrderInferFallback, DfsChecksOversizedHistoriesIteratively)
{
    // The old recursive engine refused histories beyond a 20k-op
    // cap to protect the host stack. The iterative engine keeps its
    // branch frames on an explicit heap stack: a history well past
    // that cap comes back with a real verdict. Overlapping pairs
    // force a branch frame every other operation, driving the
    // stack thousands of frames deep — far beyond safe recursion.
    std::vector<LinOp> h;
    for (unsigned i = 0; i < 12'000; ++i) {
        const Cycles base = 40 * i;
        h.push_back(mk(0, i, base, base + 20,
                       LinOpCode::SetLookup, 7, 0, {}));
        h.push_back(mk(1, i, base + 10, base + 30,
                       LinOpCode::SetLookup, 7, 0, {}));
    }
    const LinVerdict dfs = inject::checkSetLinearizable(h, {});
    EXPECT_TRUE(dfs.checked) << dfs.reason;
    EXPECT_TRUE(dfs.linearizable);
}

TEST(OrderInferFallback, DfsGivesPendingHistoriesRealVerdicts)
{
    // An all-pending history branches at every operation — exactly
    // the shape the old size cap guarded against. It now returns a
    // real verdict, bounded by maxStates alone.
    std::vector<LinOp> big;
    for (unsigned i = 0; i < 1'000; ++i)
        big.push_back(mkPending(i, 0, i, LinOpCode::SetLookup, 7));
    const LinVerdict ok = inject::checkSetLinearizable(big, {});
    EXPECT_TRUE(ok.checked) << ok.reason;
    EXPECT_TRUE(ok.linearizable);

    // Refutation still works among pending noise: the second
    // lookup misses a key the first one saw, and the only insert
    // that could explain the hit has no matching delete — no
    // branch over the pending insert explains both results.
    const std::vector<LinOp> bad = {
        mkPending(0, 0, 0, LinOpCode::SetInsert, 42),
        mk(1, 0, 10, 20, LinOpCode::SetLookup, 42, 1, {}),
        mk(1, 1, 30, 40, LinOpCode::SetLookup, 42, 0, {}),
    };
    const LinVerdict v = inject::checkSetLinearizable(bad, {});
    ASSERT_TRUE(v.checked) << v.reason;
    EXPECT_FALSE(v.linearizable);
}

// ---------------------------------------------------------------
// Property tests: DFS equivalence and version-log jitter safety.
// ---------------------------------------------------------------

/** One generated operation of a serial set execution. */
struct SeqOp
{
    Cycles t = 0;
    LinOpCode code = LinOpCode::SetLookup;
    std::uint64_t arg = 0, result = 0;
};

/** A random valid serial set history against @p initial. */
std::vector<SeqOp>
generateSerial(Rng &rng, unsigned num_ops,
               std::vector<std::uint64_t> &initial)
{
    std::set<std::uint64_t> model;
    for (std::uint64_t k = 1; k <= 8; ++k) {
        if (rng.nextBool(0.5)) {
            model.insert(k);
            initial.push_back(k);
        }
    }
    std::vector<SeqOp> seq;
    for (unsigned i = 0; i < num_ops; ++i) {
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
    return seq;
}

/**
 * Spread @p seq across CPUs with windows jittered up to +-15
 * cycles (overlapping neighbours) and a faithful version log:
 * every operation writes the shared object, so the version chain
 * pins the true serial order the windows no longer do.
 */
std::vector<LinOp>
concurrentWithVersions(Rng &rng, const std::vector<SeqOp> &seq)
{
    std::vector<LinOp> ops;
    std::vector<Cycles> cpu_last;
    std::vector<std::uint32_t> cpu_seq;
    std::uint64_t version = 0;
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
        ops.push_back(mk(CpuId(cpu), cpu_seq[cpu]++, inv, resp,
                         op.code, op.arg, op.result,
                         {wr(objA, ++version)}));
    }
    return ops;
}

TEST(OrderInferProperty, AgreesWithDfsOnSmallHistories)
{
    constexpr unsigned numOps = 24;
    constexpr unsigned rounds = 12;
    for (std::uint64_t round = 1; round <= rounds; ++round) {
        Rng rng(round * 0x9E3779B97F4A7C15ULL);
        std::vector<std::uint64_t> initial;
        const auto seq = generateSerial(rng, numOps, initial);
        const auto ops = concurrentWithVersions(rng, seq);

        const OrderInferReport inf =
            inject::inferSetLinearizable(ops, initial);
        const LinVerdict dfs =
            inject::checkSetLinearizable(ops, initial);
        ASSERT_TRUE(inf.inferred)
            << "round " << round << ": " << inf.fallbackReason;
        ASSERT_TRUE(inf.verdict.checked && dfs.checked)
            << "round " << round;
        EXPECT_TRUE(inf.verdict.linearizable)
            << "round " << round << ": " << inf.verdict.reason;
        EXPECT_EQ(inf.verdict.linearizable, dfs.linearizable)
            << "round " << round;

        // One flipped result: both oracles must reject.
        auto mutated = ops;
        mutated[rng.nextBounded(numOps)].result ^= 1;
        const OrderInferReport bad_inf =
            inject::inferSetLinearizable(mutated, initial);
        const LinVerdict bad_dfs =
            inject::checkSetLinearizable(mutated, initial);
        ASSERT_TRUE(bad_inf.verdict.checked && bad_dfs.checked)
            << "round " << round;
        EXPECT_FALSE(bad_inf.verdict.linearizable)
            << "round " << round;
        EXPECT_FALSE(bad_dfs.linearizable) << "round " << round;
    }
}

TEST(OrderInferProperty, JitteredVersionLogNeverWrongVerdict)
{
    // Corrupt the version log of a known-linearizable history in
    // every way the recorder could malfunction. Whatever route the
    // oracle takes — fallback, refuted replay, or an inferred order
    // that happens to survive — a checked verdict must never call
    // the (linearizable) history a violation.
    constexpr unsigned numOps = 20;
    constexpr unsigned rounds = 12;
    for (std::uint64_t round = 1; round <= rounds; ++round) {
        Rng rng(round * 0xD1B54A32D192ED03ULL);
        std::vector<std::uint64_t> initial;
        const auto seq = generateSerial(rng, numOps, initial);
        const auto ops = concurrentWithVersions(rng, seq);

        for (const char *mode :
             {"reorder", "duplicate", "gap", "drop"}) {
            auto jittered = ops;
            const std::string m = mode;
            if (m == "reorder") {
                // Swap the versions two operations recorded.
                const unsigned a = rng.nextBounded(numOps);
                const unsigned b = rng.nextBounded(numOps);
                std::swap(jittered[a].accesses[0].version,
                          jittered[b].accesses[0].version);
            } else if (m == "duplicate") {
                const unsigned a = rng.nextBounded(numOps);
                jittered[a].accesses.push_back(
                    jittered[a].accesses[0]);
            } else if (m == "gap") {
                // Re-install the top version one higher.
                unsigned top = 0;
                for (unsigned i = 1; i < numOps; ++i) {
                    if (jittered[i].accesses[0].version >
                        jittered[top].accesses[0].version)
                        top = i;
                }
                ++jittered[top].accesses[0].version;
            } else {
                jittered[rng.nextBounded(numOps)].accesses.clear();
            }

            const OrderInferReport r =
                inject::inferSetLinearizable(jittered, initial);
            if (r.verdict.checked) {
                EXPECT_TRUE(r.verdict.linearizable)
                    << "round " << round << " mode " << mode
                    << ": " << r.verdict.reason;
            } else {
                ADD_FAILURE_AT(__FILE__, __LINE__)
                    << "round " << round << " mode " << mode
                    << ": unchecked: " << r.verdict.reason;
            }
        }
    }
}

// ---------------------------------------------------------------
// OPLOGV recording plumbing through a real machine.
// ---------------------------------------------------------------

TEST(OpLogVIsa, CommitRecordsFootprintVersionsAtZeroCost)
{
    // Inside a (constrained) transaction OPLOGV arms footprint
    // reporting: the commit batches the region's lines onto the
    // bracketing operation record. The pseudo-ops are free.
    const auto build = [](bool logged) {
        isa::Assembler as;
        as.la(9, 0, std::int64_t(dataBase));
        if (logged)
            as.oplogb(1, 9);
        as.tbeginc(0x00);
        as.lhi(3, 7);
        as.stg(3, 9, 0);
        if (logged)
            as.oplogv(9, 0);
        as.tend();
        if (logged)
            as.oploge(3);
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
    const Cycles with_log = m2.run();

    EXPECT_EQ(base, with_log);
    EXPECT_EQ(log.protocolErrors(), 0u);
    ASSERT_EQ(log.ops(0).size(), 1u);
    const workload::OpRecord &rec = log.ops(0).front();
    EXPECT_TRUE(rec.completed);
    ASSERT_FALSE(rec.accesses.empty());
    bool wrote_line = false;
    for (const VersionAccess &a : rec.accesses) {
        if (a.objid == dataBase && a.write && a.version == 1)
            wrote_line = true;
    }
    EXPECT_TRUE(wrote_line)
        << "stored line missing from the commit footprint";
    EXPECT_EQ(log.versionRecords(), rec.accesses.size());
}

TEST(OpLogVIsa, OutsideTxRecordsLockLineWrite)
{
    // On the lock path OPLOGV records a single write of the lock
    // line: lock regions join the lock's version chain, totally
    // ordering them against each other and against elided regions
    // (which read the lock word into their footprint).
    isa::Assembler as;
    as.la(10, 0, std::int64_t(dataBase + 0x1000));
    as.oplogb(1, 10);
    as.oplogv(10, 0);
    as.oploge(10);
    as.oplogb(1, 10);
    as.oplogv(10, 0);
    as.oploge(10);
    as.halt();
    const isa::Program p = as.finish();

    workload::OpLog log(1);
    sim::Machine m(smallConfig(1));
    m.cpu(0).setOpRecorder(&log);
    m.setProgram(0, &p);
    m.run();

    ASSERT_EQ(log.ops(0).size(), 2u);
    std::uint64_t want = 1;
    for (const workload::OpRecord &rec : log.ops(0)) {
        ASSERT_EQ(rec.accesses.size(), 1u);
        EXPECT_EQ(rec.accesses[0].objid, dataBase + 0x1000);
        EXPECT_TRUE(rec.accesses[0].write);
        EXPECT_EQ(rec.accesses[0].version, want++);
    }
}

TEST(OpLogVIsa, WithoutRecorderIsANop)
{
    isa::Assembler as;
    as.lhi(1, 5);
    as.oplogv(1, 0);
    as.halt();
    const isa::Program p = as.finish();

    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run();
    EXPECT_TRUE(m.allHalted());
    EXPECT_EQ(m.cpu(0).gr(1), 5u);
}

TEST(OpLogVIsa, PendingAtWatchdogHaltRoutesToDfsFallback)
{
    // Halt the machine mid-operation: the op is pending, there is
    // no commit record, and the order-inference oracle must hand
    // the history to the DFS, which branches over both outcomes.
    isa::Assembler as;
    as.lhi(1, 5);
    as.oplogb(std::uint32_t(inject::LinOpCode::SetInsert), 1);
    as.label("spin");
    as.j("spin"); // livelock inside the operation
    const isa::Program p = as.finish();

    sim::MachineConfig cfg = smallConfig(1);
    cfg.watchdogCycles = 5'000;
    sim::Machine m(cfg);
    workload::OpLog log(1);
    m.cpu(0).setOpRecorder(&log);
    m.setProgram(0, &p);
    workload::RunSummary res =
        workload::summarizeRun(m, m.run(1'000'000));
    ASSERT_TRUE(res.watchdogFired);

    // The history is checked even though the watchdog fired; the
    // firing alone fails the run and leaves the structure unjudged.
    std::size_t history_size = 0;
    EXPECT_FALSE(workload::checkRunHistory(
        res, &log,
        [](const workload::OpRecord &rec, LinOp &op) {
            op.code = LinOpCode(rec.code);
            op.arg = rec.a0;
            op.result = rec.result;
        },
        [&](const std::vector<LinOp> &history) {
            history_size = history.size();
            EXPECT_TRUE(history.at(0).pending);
            return inject::inferSetLinearizable(history, {});
        }));
    EXPECT_EQ(history_size, 1u);
    EXPECT_FALSE(res.oracle.ok);
    EXPECT_NE(res.oracle.summary().find("watchdog"), std::string::npos);
    const OrderInferReport &r = res.orderInfer;
    EXPECT_EQ(res.lincheck.checked, r.verdict.checked);
    EXPECT_FALSE(r.inferred);
    EXPECT_NE(r.fallbackReason.find("pending"), std::string::npos);
    ASSERT_TRUE(r.verdict.checked) << r.verdict.reason;
    EXPECT_TRUE(r.verdict.linearizable) << r.verdict.reason;
    EXPECT_EQ(r.verdict.numPending, 1u);
}

// ---------------------------------------------------------------
// End-to-end workload runs.
// ---------------------------------------------------------------

TEST(OrderInferWorkload, ListSetElisionInfersDeterministically)
{
    workload::ListSetBenchConfig cfg;
    cfg.cpus = 4;
    cfg.useElision = true;
    cfg.iterations = 60;
    cfg.opLog = true;
    cfg.machine = smallConfig(4);

    const auto a = workload::runListSetBench(cfg);
    EXPECT_TRUE(a.oracle.ok) << a.oracle.summary();
    EXPECT_TRUE(a.orderInfer.inferred)
        << a.orderInfer.fallbackReason;
    ASSERT_TRUE(a.lincheck.checked) << a.lincheck.reason;
    EXPECT_TRUE(a.lincheck.linearizable) << a.lincheck.reason;
    EXPECT_EQ(a.orderInfer.orderLength, 4u * cfg.iterations);
    EXPECT_GT(a.orderInfer.versionRecords, 0u);
    EXPECT_GT(a.orderInfer.versionEdges, 0u);

    // Same seed, same machine: the inferred schedule is
    // bit-identical across runs.
    const auto b = workload::runListSetBench(cfg);
    EXPECT_EQ(a.orderInfer.order, b.orderInfer.order);
    EXPECT_EQ(a.orderInfer.versionEdges, b.orderInfer.versionEdges);
}

TEST(OrderInferWorkload, ListSetLockPathInfers)
{
    // The spin-lock path has no transactions at all: the lock-line
    // writes OPLOGV records are the entire version order.
    workload::ListSetBenchConfig cfg;
    cfg.cpus = 4;
    cfg.useElision = false;
    cfg.iterations = 40;
    cfg.opLog = true;
    cfg.machine = smallConfig(4);
    const auto res = workload::runListSetBench(cfg);
    EXPECT_TRUE(res.oracle.ok) << res.oracle.summary();
    EXPECT_TRUE(res.orderInfer.inferred)
        << res.orderInfer.fallbackReason;
    EXPECT_TRUE(res.lincheck.linearizable) << res.lincheck.reason;
}

TEST(OrderInferWorkload, ConstrainedQueueInfers)
{
    // OPLOGV inside TBEGINC: the pseudo-op must stay legal in
    // constrained regions (unlike OPLOGB/OPLOGE) or enabling the
    // log would change which regions are constrained-legal.
    workload::QueueBenchConfig cfg;
    cfg.cpus = 4;
    cfg.useConstrainedTx = true;
    cfg.iterations = 50;
    cfg.opLog = true;
    cfg.machine = smallConfig(4);
    const auto res = workload::runQueueBench(cfg);
    EXPECT_TRUE(res.oracle.ok) << res.oracle.summary();
    EXPECT_TRUE(res.orderInfer.inferred)
        << res.orderInfer.fallbackReason;
    ASSERT_TRUE(res.lincheck.checked) << res.lincheck.reason;
    EXPECT_TRUE(res.lincheck.linearizable) << res.lincheck.reason;
    EXPECT_EQ(res.orderInfer.orderLength, 8u * cfg.iterations);
}

TEST(OrderInferWorkload, HashTableElisionInfers)
{
    workload::HashTableBenchConfig cfg;
    cfg.cpus = 4;
    cfg.useElision = true;
    cfg.iterations = 60;
    cfg.opLog = true;
    cfg.machine = smallConfig(4);
    const auto res = workload::runHashTableBench(cfg);
    EXPECT_TRUE(res.oracle.ok) << res.oracle.summary();
    EXPECT_TRUE(res.orderInfer.inferred)
        << res.orderInfer.fallbackReason;
    ASSERT_TRUE(res.lincheck.checked) << res.lincheck.reason;
    EXPECT_TRUE(res.lincheck.linearizable) << res.lincheck.reason;
}

TEST(OrderInferWorkload, RingOverflowUnderChaosYieldsTruncated)
{
    // Satellite regression: a dropped() > 0 history must come back
    // as the explicit `truncated` verdict — never ok, never a
    // violation — and must not reach either oracle.
    inject::FaultPlan plan;
    plan.spuriousAbortRate = 0.01;
    workload::ListSetBenchConfig cfg;
    cfg.cpus = 4;
    cfg.useElision = true;
    cfg.iterations = 100;
    cfg.opLog = true;
    cfg.opLogCapacity = 8; // 100 ops/cpu: guaranteed overflow
    cfg.machine = smallConfig(4);
    cfg.machine.faults = plan;
    cfg.machine.watchdogCycles = 2'000'000;
    const auto res = workload::runListSetBench(cfg);

    EXPECT_TRUE(res.lincheck.truncated);
    EXPECT_FALSE(res.lincheck.checked);
    EXPECT_FALSE(res.lincheck.linearizable);
    EXPECT_FALSE(res.orderInfer.inferred);
    EXPECT_NE(res.orderInfer.fallbackReason.find("truncated"),
              std::string::npos);
    // Truncation is not a structural violation: the state oracle
    // still passes.
    EXPECT_TRUE(res.oracle.ok) << res.oracle.summary();
}

} // namespace
