#include "queue.hh"


#include "common/log.hh"
#include "isa/assembler.hh"
#include "locks/lock_gen.hh"
#include "workload/layout.hh"
#include "workload/op_log.hh"
#include "workload/report.hh"

namespace ztx::workload {

using isa::Assembler;
using isa::Program;

namespace {

/** Queue anchor layout: head pointer at +0, tail pointer at +256. */
constexpr std::int64_t headDisp = 0;
constexpr std::int64_t tailDisp = 256;

/** Address of the initial dummy node. */
constexpr Addr dummyNodeAddr = queueBase + 0x1000;

} // namespace

Program
buildQueueProgram(const QueueBenchConfig &cfg)
{
    /*
     * Registers: R3/R5/R6 scratch, R4 node address, R8 iterations,
     * R9 queue anchor, R10 global lock, R11 backoff, R12 value,
     * R14 dequeue-success counter, R15 per-CPU arena bump pointer
     * (initialized host-side). R0..R2 belong to the lock helpers.
     */
    Assembler as;
    const locks::LockRegs lock_regs;
    as.la(9, 0, std::int64_t(queueBase));
    as.la(10, 0, std::int64_t(globalLockAddr));
    as.lhi(8, cfg.iterations);
    as.lhi(14, 0);
    as.label("iter");

    // --- Prepare a fresh node outside the synchronized region.
    as.lr(12, 8); // value = remaining-iteration count
    as.la(4, 15, 0);
    as.stg(12, 4, 0); // node.value
    as.lhi(3, 0);
    as.stg(3, 4, 8); // node.next = nullptr
    as.la(15, 15, 256);

    // --- Enqueue.
    const auto enqueue_body = [&] {
        as.lgfo(3, 9, tailDisp); // tail node (store intent)
        as.stg(4, 3, 8);         // tail->next = node
        as.stg(4, 9, tailDisp);  // tail = node
        // Version record: in the constrained TX it arms the commit
        // footprint (legal there, unlike OPLOGB/OPLOGE); on the
        // lock path it records the lock-line write.
        if (cfg.opLog)
            as.oplogv(10, 0);
    };
    if (cfg.opLog) {
        as.oplogb(std::uint32_t(inject::LinOpCode::QueueEnqueue),
                  12);
    }
    as.markb();
    if (cfg.useConstrainedTx) {
        as.tbeginc(0x00);
        enqueue_body();
        as.tend();
    } else {
        locks::SpinLock::emitAcquire(as, 10, 0, lock_regs, "enq");
        enqueue_body();
        locks::SpinLock::emitRelease(as, 10, 0, lock_regs);
    }
    as.marke();
    if (cfg.opLog)
        as.oploge(12); // enqueue result is its value (unchecked)

    // --- Dequeue.
    const auto dequeue_body = [&] {
        // Zero the result register inside the region so an aborted
        // attempt cannot leave a stale value behind; enqueued
        // values are >= 1, so 0 encodes "observed empty".
        if (cfg.opLog)
            as.lhi(6, 0);
        as.lgfo(3, 9, headDisp); // dummy/head node (store intent)
        as.lg(5, 3, 8);          // head->next
        as.cghi(5, 0);
        as.jz("deq_empty");      // forward branch: queue empty
        as.stg(5, 9, headDisp);  // head = next
        as.lg(6, 5, 0);          // value
        as.label("deq_empty");
        if (cfg.opLog)
            as.oplogv(10, 0);
    };
    if (cfg.opLog)
        as.oplogb(std::uint32_t(inject::LinOpCode::QueueDequeue), 0);
    as.markb();
    if (cfg.useConstrainedTx) {
        as.tbeginc(0x00);
        dequeue_body();
        as.tend();
    } else {
        locks::SpinLock::emitAcquire(as, 10, 0, lock_regs, "deq");
        dequeue_body();
        locks::SpinLock::emitRelease(as, 10, 0, lock_regs);
    }
    as.marke();
    if (cfg.opLog)
        as.oploge(6); // dequeued value, 0 when observed empty
    as.cghi(5, 0);
    as.jz("deq_was_empty");
    as.ahi(14, 1);
    as.label("deq_was_empty");

    as.brct(8, "iter");
    as.halt();
    return as.finish();
}

QueueBenchResult
runQueueBench(const QueueBenchConfig &cfg)
{
    QueueBenchResult res;
    runAndJudge(
        res, "queue", cfg.machine, cfg.cpus, cfg.seed,
        buildQueueProgram(cfg),
        [&](sim::Machine &machine) {
            // Head = tail = dummy node with next = nullptr.
            machine.memory().write(queueBase + headDisp, dummyNodeAddr,
                                   8);
            machine.memory().write(queueBase + tailDisp, dummyNodeAddr,
                                   8);
            machine.memory().write(dummyNodeAddr + 8, 0, 8);
            for (unsigned i = 0; i < cfg.cpus; ++i)
                machine.cpu(i).setGr(
                    15, arenaBase + Addr(i) * arenaStride);
        },
        cfg.opLog, cfg.opLogCapacity,
        [](const OpRecord &rec, inject::LinOp &op) {
            op.code = inject::LinOpCode(rec.code);
            op.arg = rec.a0;
            op.result = rec.result;
        },
        [](const std::vector<inject::LinOp> &history) {
            return inject::inferQueueLinearizable(history, {});
        },
        [&](sim::Machine &machine) {
            for (unsigned i = 0; i < machine.numCpus(); ++i)
                res.dequeuedNonEmpty += machine.cpu(i).gr(14);
            // Enqueues minus successful dequeues.
            const inject::QueueReport walk = inject::checkQueue(
                machine.memory(), machine.allHalted(),
                queueBase + headDisp, queueBase + tailDisp,
                std::int64_t(cfg.cpus) * cfg.iterations -
                    std::int64_t(res.dequeuedNonEmpty));
            res.finalLength = walk.length;
            return walk;
        });
    return res;
}

} // namespace ztx::workload
