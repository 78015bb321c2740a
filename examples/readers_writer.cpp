/**
 * @file
 * Read-mostly sharing: read-write lock versus transactional readers
 * (the figure 5(d) effect at example scale). Both versions read a
 * bank of shared variables; the RW lock's read-count update makes
 * the lock word ping-pong between CPUs, while transactional readers
 * share everything read-only and scale.
 */

#include <cstdio>

#include "isa/assembler.hh"
#include "locks/lock_gen.hh"
#include "sim/machine.hh"

namespace {

using namespace ztx;

constexpr Addr bank = 0x10'0000;
constexpr Addr lockWord = 0x80'0000;
constexpr unsigned iterations = 300;

isa::Program
buildReader(bool transactional)
{
    isa::Assembler as;
    locks::LockRegs regs;
    as.la(9, 0, bank);
    as.la(10, 0, lockWord);
    as.lhi(8, iterations);
    as.label("loop");
    as.markb();
    if (transactional) {
        as.tbegin(0x00);
        as.jnz("retry");
        for (int v = 0; v < 4; ++v)
            as.lg(3, 9, v * 256);
        as.tend();
        as.j("done");
        as.label("retry");
        as.j("loop");
        as.label("done");
    } else {
        locks::RwLock::emitReadAcquire(as, 10, 0, regs, "rd");
        for (int v = 0; v < 4; ++v)
            as.lg(3, 9, v * 256);
        locks::RwLock::emitReadRelease(as, 10, 0, regs, "rr");
    }
    as.marke();
    as.brct(8, "loop");
    as.halt();
    return as.finish();
}

double
throughput(bool transactional, unsigned cpus)
{
    sim::MachineConfig config;
    config.activeCpus = cpus;
    sim::Machine machine(config);
    const isa::Program program = buildReader(transactional);
    machine.setProgramAll(&program);
    machine.run();
    double sum = 0;
    std::uint64_t count = 0;
    for (unsigned i = 0; i < cpus; ++i) {
        sum += machine.cpu(i).regionCycles().sum();
        count += machine.cpu(i).regionCycles().total();
    }
    return double(cpus) / (sum / double(count));
}

} // namespace

int
main()
{
    std::printf("%8s %14s %14s %8s\n", "CPUs", "RW-lock",
                "Transactions", "Ratio");
    for (const unsigned cpus : {2u, 4u, 8u, 16u, 24u}) {
        const double rw = throughput(false, cpus);
        const double tx = throughput(true, cpus);
        std::printf("%8u %14.5f %14.5f %8.2f\n", cpus, rw, tx,
                    tx / rw);
    }
    std::printf("\nTransactional readers never write the lock word, "
                "so the shared\nline stays read-only in every L1 and "
                "throughput keeps scaling.\n");
    return 0;
}
