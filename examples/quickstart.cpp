/**
 * @file
 * zTX quickstart: build a machine, assemble a transactional
 * program, run it, and inspect the results.
 *
 * Two CPUs concurrently increment a shared counter inside
 * constrained transactions (TBEGINC) — the zEC12 feature that
 * guarantees eventual success with no fallback path — and the final
 * count is exact.
 */

#include <cstdio>

#include "isa/assembler.hh"
#include "sim/machine.hh"

int
main()
{
    using namespace ztx;

    // A machine with 2 CPUs of the default zEC12-like topology.
    sim::MachineConfig config;
    config.activeCpus = 2;
    sim::Machine machine(config);

    constexpr Addr counter = 0x10'0000;
    constexpr unsigned iterations = 1000;

    // Assemble:  for (i = 0; i < iterations; ++i)
    //                atomically { *counter += 1; }
    isa::Assembler as;
    as.la(9, 0, counter);        // R9 = &counter
    as.lhi(8, iterations);       // R8 = loop count
    as.label("loop");
    as.tbeginc(0x00);            // begin constrained transaction
    as.lgfo(1, 9);               //   R1 = *counter (store intent)
    as.ahi(1, 1);                //   R1 += 1
    as.stg(1, 9);                //   *counter = R1
    as.tend();                   // commit
    as.brct(8, "loop");
    as.halt();
    const isa::Program program = as.finish();

    machine.setProgramAll(&program);
    const Cycles elapsed = machine.run();

    std::printf("final count : %llu (expected %u)\n",
                (unsigned long long)machine.peekMem(counter, 8),
                2 * iterations);
    std::printf("cycles      : %llu\n",
                (unsigned long long)elapsed);
    for (unsigned i = 0; i < machine.numCpus(); ++i) {
        auto &cpu = machine.cpu(i);
        std::printf("cpu%u        : %llu commits, %llu aborts\n", i,
                    (unsigned long long)cpu.stats()
                        .value("tx.commits"),
                    (unsigned long long)cpu.stats()
                        .value("tx.aborts"));
    }
    return 0;
}
