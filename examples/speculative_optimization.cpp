/**
 * @file
 * Speculative program optimization via interruption filtering
 * (paper §II.C): instead of null-checking a pointer before every
 * dereference, the compiler dereferences it speculatively inside a
 * transaction with PIFC = 2. On the common path (pointer valid) the
 * check costs nothing; on the rare null path, the access exception
 * is filtered — no OS interruption — the transaction aborts, and
 * the fallback handles the rare case explicitly.
 */

#include <cstdio>

#include "isa/assembler.hh"
#include "sim/machine.hh"

namespace {

using namespace ztx;

constexpr Addr cellBase = 0x10'0000; // array of pointers, 1/line
constexpr Addr valueBase = 0x20'0000; // pointees
constexpr Addr nullPage = 0x0;        // address 0: unmapped

isa::Program
buildProgram(unsigned cells)
{
    isa::Assembler as;
    as.la(9, 0, cellBase);
    as.lhi(8, std::int64_t(cells));
    as.lhi(7, 0);  // sum of values (valid pointers)
    as.lhi(6, 0);  // null-pointer count (fallback path)
    as.label("next");
    as.lg(4, 9);   // the pointer (may be null)
    as.lhi(0, 0);
    as.label("retry");
    // Speculative path: no null check before the dereference.
    as.tbegin(0x00, {.pifc = 2});
    as.jnz("handler");
    as.lg(1, 4);   // *ptr — faults when ptr is null
    as.tend();
    as.agr(7, 1);
    as.j("done");
    as.label("handler");
    // Rare path: do the explicit check the hot path skipped.
    as.cghi(4, 0);
    as.jz("isnull");
    as.ahi(0, 1);            // transient (e.g. conflict): retry
    as.cijnl(0, 4, "isnull");
    as.j("retry");
    as.label("isnull");
    as.ahi(6, 1);
    as.label("done");
    as.la(9, 9, 256);
    as.brct(8, "next");
    as.halt();
    return as.finish();
}

} // namespace

int
main()
{
    constexpr unsigned cells = 64;

    sim::MachineConfig config;
    config.activeCpus = 1;
    sim::Machine machine(config);

    // Every 8th pointer is null; the rest point at a value cell
    // holding its index. Address 0's page is unmapped, so a null
    // dereference raises an access exception.
    machine.pageTable().markAbsent(nullPage);
    unsigned expected_nulls = 0;
    std::uint64_t expected_sum = 0;
    for (unsigned i = 0; i < cells; ++i) {
        const Addr cell = cellBase + Addr(i) * 256;
        if (i % 8 == 3) {
            machine.memory().write(cell, 0, 8);
            ++expected_nulls;
        } else {
            const Addr value = valueBase + Addr(i) * 256;
            machine.memory().write(cell, value, 8);
            machine.memory().write(value, i, 8);
            expected_sum += i;
        }
    }

    const isa::Program program = buildProgram(cells);
    machine.setProgram(0, &program);
    machine.run();

    std::printf("sum of values      : %llu (expected %llu)\n",
                (unsigned long long)machine.cpu(0).gr(7),
                (unsigned long long)expected_sum);
    std::printf("nulls hit          : %llu (expected %u)\n",
                (unsigned long long)machine.cpu(0).gr(6),
                expected_nulls);
    std::printf("filtered aborts    : %llu (no OS involvement)\n",
                (unsigned long long)machine.cpu(0)
                    .stats()
                    .value("tx.abort.filtered-program-interrupt"));
    std::printf("OS page faults     : %zu (must be 0 — every null "
                "deref was filtered)\n",
                machine.os().countOf(tx::InterruptCode::PageFault));
    return 0;
}
