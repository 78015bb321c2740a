#include "update_bench.hh"

#include "common/log.hh"
#include "isa/assembler.hh"
#include "locks/lock_gen.hh"
#include "workload/elision.hh"
#include "workload/layout.hh"

namespace ztx::workload {

using isa::Assembler;
using isa::Program;

const char *
syncMethodName(SyncMethod method)
{
    switch (method) {
      case SyncMethod::None: return "none";
      case SyncMethod::CoarseLock: return "coarse-lock";
      case SyncMethod::FineLock: return "fine-lock";
      case SyncMethod::RwLock: return "rw-lock";
      case SyncMethod::TBegin: return "tbegin";
      case SyncMethod::TBeginc: return "tbeginc";
    }
    return "?";
}

namespace {

/*
 * Register conventions of the generated program:
 *   R0  TX retry count          R8  iteration counter
 *   R1  CS compare / scratch    R9  pool base
 *   R2  CS swap / scratch       R10 lock base (coarse/RW/fine)
 *   R3  value scratch           R11 spin backoff
 *   R4..R7 variable addresses   R12 index scratch
 *                               R13 fine-lock address
 */

/** Emit the unsynchronized operation body. */
void
emitBody(Assembler &as, const UpdateBenchConfig &cfg)
{
    for (unsigned v = 0; v < cfg.varsPerOp; ++v) {
        if (cfg.readOnly) {
            as.lg(3, 4 + v);
        } else {
            // Update idiom: the load fetches with store intent so
            // the line arrives exclusive (see LGFO).
            as.lgfo(3, 4 + v);
            as.ahi(3, 1);
            as.stg(3, 4 + v);
        }
    }
}

/** Emit selection of the operation's variable addresses. */
void
emitPick(Assembler &as, const UpdateBenchConfig &cfg)
{
    for (unsigned v = 0; v < cfg.varsPerOp; ++v) {
        if (cfg.poolSize == 1) {
            // Pool of one: the paper uses 4 consecutive cache lines
            // for the 4-variable test.
            as.la(4 + v, 9, std::int64_t(v) * 256);
        } else {
            as.rnd(12, cfg.poolSize);
            as.sllg(12, 12, 8); // variable index -> byte offset
            as.la(4 + v, 9, 0, 12);
        }
    }
}

} // namespace

Program
buildUpdateProgram(const UpdateBenchConfig &cfg)
{
    if (cfg.method == SyncMethod::FineLock && cfg.varsPerOp != 1)
        ztx_fatal("fine-grained locking generator supports single-"
                  "variable operations only (lock ordering)");
    if (cfg.method == SyncMethod::RwLock && !cfg.readOnly)
        ztx_fatal("the RW-lock workload is the read-only comparison");

    const locks::LockRegs regs;
    Assembler as;
    as.la(9, 0, std::int64_t(poolBase));
    as.la(10, 0,
          std::int64_t(cfg.method == SyncMethod::FineLock
                           ? fineLockBase
                           : globalLockAddr));
    as.lhi(8, cfg.iterations);
    as.label("iter");
    emitPick(as, cfg);
    if (cfg.method == SyncMethod::FineLock)
        as.la(13, 10, 0, 12); // lock of the picked variable

    as.markb();
    switch (cfg.method) {
      case SyncMethod::None:
        emitBody(as, cfg);
        break;
      case SyncMethod::CoarseLock:
        locks::SpinLock::emitAcquire(as, 10, 0, regs, "lk");
        emitBody(as, cfg);
        locks::SpinLock::emitRelease(as, 10, 0, regs);
        break;
      case SyncMethod::FineLock:
        locks::SpinLock::emitAcquire(as, 13, 0, regs, "lk");
        emitBody(as, cfg);
        locks::SpinLock::emitRelease(as, 13, 0, regs);
        break;
      case SyncMethod::RwLock:
        locks::RwLock::emitReadAcquire(as, 10, 0, regs, "rd");
        emitBody(as, cfg);
        locks::RwLock::emitReadRelease(as, 10, 0, regs, "rr");
        break;
      case SyncMethod::TBegin:
        emitLockElision(as, 10, 0, [&] { emitBody(as, cfg); },
                        "op");
        break;
      case SyncMethod::TBeginc:
        as.tbeginc(0x00);
        emitBody(as, cfg);
        as.tend();
        break;
    }
    as.marke();
    as.brct(8, "iter");
    as.halt();
    return as.finish();
}

UpdateBenchResult
runUpdateBench(const UpdateBenchConfig &cfg)
{
    UpdateBenchResult res;
    runAndJudge(res, "update", cfg.machine, cfg.cpus, cfg.seed,
                buildUpdateProgram(cfg), {}, false, 0, {}, {},
                [&](sim::Machine &machine) {
                    // The 4-consecutive-lines variant of the
                    // single-variable pool reads four lines.
                    const unsigned lines =
                        cfg.poolSize == 1 && cfg.varsPerOp == 4
                            ? 4
                            : cfg.poolSize;
                    for (unsigned i = 0; i < lines; ++i)
                        res.poolSum += machine.memory().read(
                            poolBase + Addr(i) * 256, 8);
                    return inject::OracleReport{};
                });
    if (res.meanRegionCycles == 0)
        ztx_fatal("no measured regions recorded");
    return res;
}

double
referenceThroughput(const sim::MachineConfig &machine,
                    unsigned iterations)
{
    UpdateBenchConfig ref;
    ref.cpus = 2;
    ref.poolSize = 1;
    ref.varsPerOp = 1;
    ref.method = SyncMethod::CoarseLock;
    ref.iterations = iterations;
    ref.machine = machine;
    return runUpdateBench(ref).throughput;
}

} // namespace ztx::workload
