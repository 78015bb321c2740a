/**
 * @file
 * The TX debug architecture in action (paper §II.E):
 *
 *  1. Transaction Diagnostic Block: a transaction aborts via TABORT
 *     with a diagnostic code and the TDB captures the abort code,
 *     the aborted instruction address, and the GRs at abort.
 *  2. NTSTG breadcrumb debugging: non-transactional stores survive
 *     the rollback, revealing which path the transaction took.
 *  3. Transaction Diagnostic Control: OS-forced random aborts
 *     stress the retry path of otherwise conflict-free code.
 */

#include <cstdio>

#include "isa/assembler.hh"
#include "sim/machine.hh"
#include "tx/tdb.hh"

int
main()
{
    using namespace ztx;

    constexpr Addr data = 0x10'0000;
    constexpr Addr tdbAddr = 0x20'0000;
    constexpr Addr crumbs = 0x30'0000;

    // --- Part 1 + 2: abort with TDB and NTSTG breadcrumbs.
    isa::Assembler as;
    as.la(8, 0, tdbAddr);
    as.la(9, 0, data);
    as.la(10, 0, crumbs);
    as.lhi(7, 1111); // pre-transaction value of GR7
    as.tbegin(0xFF, {.tdbBase = 8});
    as.jnz("aborted");
    as.lhi(7, 2222);    // in-transaction value: visible in the TDB
    as.lhi(1, 41);
    as.stg(1, 9);       // transactional store: rolled back
    as.ntstg(7, 10, 0); // breadcrumb: survives the abort
    as.ntstg(1, 10, 8); // second breadcrumb
    as.tabort(0, 4242); // even code -> transient (CC2)
    as.label("aborted");
    as.halt();
    const isa::Program program = as.finish();

    sim::MachineConfig config;
    config.activeCpus = 1;
    sim::Machine machine(config);
    machine.setProgram(0, &program);
    machine.run();

    const tx::Tdb tdb = tx::Tdb::load(machine.memory(), tdbAddr);
    std::printf("== Transaction Diagnostic Block ==\n");
    std::printf("abort code        : %llu (TABORT operand)\n",
                (unsigned long long)tdb.abortCode);
    std::printf("aborted instr addr: 0x%llx\n",
                (unsigned long long)tdb.abortedIa);
    std::printf("GR7 at abort      : %llu (in-TX value)\n",
                (unsigned long long)tdb.grs[7]);
    std::printf("GR7 after restore : %llu (pre-TX value)\n",
                (unsigned long long)machine.cpu(0).gr(7));
    std::printf("condition code    : %u (2 = transient)\n",
                machine.cpu(0).psw().cc);

    std::printf("\n== NTSTG breadcrumbs (survive the abort) ==\n");
    std::printf("crumb[0] = %llu, crumb[1] = %llu\n",
                (unsigned long long)machine.peekMem(crumbs, 8),
                (unsigned long long)machine.peekMem(crumbs + 8, 8));
    std::printf("rolled-back store : %llu (0 = rolled back)\n",
                (unsigned long long)machine.peekMem(data, 8));

    // --- Part 3: TDC-forced aborts on a retry loop.
    isa::Assembler as2;
    as2.la(9, 0, data);
    as2.lhi(8, 100);
    as2.label("loop");
    as2.label("retry");
    as2.tbegin(0x00);
    as2.jnz("retry"); // transient aborts: retry immediately
    as2.lgfo(1, 9);
    as2.ahi(1, 1);
    as2.stg(1, 9);
    as2.tend();
    as2.brct(8, "loop");
    as2.halt();
    const isa::Program p2 = as2.finish();

    sim::Machine m2(config);
    m2.cpu(0).tdcControl().mode = debug::TdcMode::Random;
    m2.cpu(0).tdcControl().abortProbability = 0.10;
    m2.setProgram(0, &p2);
    m2.run();
    std::printf("\n== Transaction Diagnostic Control ==\n");
    std::printf("count    : %llu of 100\n",
                (unsigned long long)m2.peekMem(data, 8));
    std::printf("commits  : %llu\n",
                (unsigned long long)m2.cpu(0).stats().value("tx.commits"));
    std::printf("forced aborts : %llu\n",
                (unsigned long long)m2.cpu(0)
                    .stats()
                    .value("tx.abort.diagnostic"));
    return 0;
}
