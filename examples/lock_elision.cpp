/**
 * @file
 * Lock elision (paper figure 1): a data structure guarded by a
 * traditional lock is accessed transactionally without taking the
 * lock; the lock is only acquired on the fallback path after
 * repeated transient aborts. Transactions test the lock so elided
 * and lock-based execution can coexist — here we force some
 * fallback activity with the Transaction Diagnostic Control and
 * show both paths updating the same structure correctly.
 */

#include <cstdio>

#include "isa/assembler.hh"
#include "sim/machine.hh"
#include "workload/elision.hh"

int
main()
{
    using namespace ztx;

    constexpr Addr counter = 0x10'0000;
    constexpr Addr lock_word = 0x20'0000;
    constexpr unsigned iterations = 500;

    isa::Assembler as;
    as.la(9, 0, counter);
    as.la(10, 0, lock_word);
    as.lhi(8, iterations);
    as.label("loop");
    // The figure-1 structure: TBEGIN, test the lock, body, TEND;
    // retry with PPA backoff; fall back to the lock after 6 tries.
    workload::emitLockElision(
        as, 10, 0,
        [&] {
            as.lgfo(1, 9);
            as.ahi(1, 1);
            as.stg(1, 9);
        },
        "elide");
    as.brct(8, "loop");
    as.halt();
    const isa::Program program = as.finish();

    sim::MachineConfig config;
    config.activeCpus = 4;
    sim::Machine machine(config);
    machine.setProgramAll(&program);

    // Diagnostic random aborts on CPU 0 exercise the retry and
    // fallback paths (paper §II.E.3).
    machine.cpu(0).tdcControl().mode = debug::TdcMode::Random;
    machine.cpu(0).tdcControl().abortProbability = 0.05;

    machine.run();

    std::printf("final count : %llu (expected %u)\n",
                (unsigned long long)machine.peekMem(counter, 8),
                4 * iterations);
    unsigned long long commits = 0, aborts = 0;
    for (unsigned i = 0; i < machine.numCpus(); ++i) {
        commits +=
            machine.cpu(i).stats().value("tx.commits");
        aborts +=
            machine.cpu(i).stats().value("tx.aborts");
    }
    std::printf("elided commits : %llu\n", commits);
    std::printf("aborts         : %llu\n", aborts);
    std::printf("fallback ops   : %llu (total %u)\n",
                4ull * iterations - commits, 4 * iterations);
    return 0;
}
