#include "footprint.hh"

#include <utility>

#include "common/rng.hh"
#include "isa/assembler.hh"
#include "workload/report.hh"

namespace ztx::workload {

FootprintResult
measureFootprint(unsigned lines, const FootprintConfig &cfg)
{
    sim::MachineConfig mcfg = cfg.machine;
    mcfg.topology = mem::Topology(1, 1, 1);
    mcfg.activeCpus = 1;
    mcfg.seed = cfg.seed;
    // One machine is reused across trials: transactional marks are
    // reset at every TBEGIN and each trial first flushes CPU 0's L1
    // and L2, so no earlier trial's line holds a way of the classes
    // the statistic measures.
    sim::Machine machine(mcfg);

    Rng rng(cfg.seed ^ 0xF00DULL);
    FootprintResult res;
    res.trials = cfg.trials;
    for (unsigned trial = 0; trial < cfg.trials; ++trial) {
        // n loads of random congruence classes: random lines from a
        // large region (collisions in a class are the statistic
        // being measured).
        isa::Assembler as;
        as.tbegin(0x00);
        as.jnz("failed");
        for (unsigned i = 0; i < lines; ++i) {
            const Addr line =
                0x1000'0000 + rng.nextBounded(1 << 20) * 256;
            as.lg(1, 0, std::int64_t(line));
        }
        as.tend();
        as.lhi(3, 1);
        as.j("out");
        as.label("failed");
        as.lhi(3, 2);
        as.label("out");
        as.halt();
        const isa::Program program = as.finish();
        machine.hierarchy().flushCpuCaches(0); // cold caches
        machine.setProgram(0, &program);
        res.simCycles += machine.run();
        if (machine.cpu(0).gr(3) == 2)
            ++res.abortedTrials;
    }
    res.abortRate = double(res.abortedTrials) / double(cfg.trials);
    RunSummary run = summarizeRun(machine, res.simCycles);
    res.instructions = run.instructions;
    res.abortsByReason = std::move(run.abortsByReason);
    return res;
}

double
measureFootprintAbortRate(unsigned lines, const FootprintConfig &cfg)
{
    return measureFootprint(lines, cfg).abortRate;
}

} // namespace ztx::workload
