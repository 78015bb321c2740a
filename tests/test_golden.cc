/**
 * @file
 * Golden behaviour gate: FNV-1a hashes of Machine::statsJson() (and,
 * for the private-region run, of the final memory image) for reduced
 * legacy-scheduler runs, blessed on a known-good tree.
 *
 * The determinism tests compare a run with a replay of itself; these
 * pins compare a run with its own past. A speed-only
 * change must leave every hash untouched. An intended behaviour
 * change re-blesses the hashes and records the delta in
 * EXPERIMENTS.md.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "isa/assembler.hh"
#include "sim/machine.hh"
#include "workload/layout.hh"
#include "workload/update_bench.hh"

namespace {

using namespace ztx;

/** 64-bit FNV-1a. */
class Fnv1a
{
  public:
    void
    add(std::string_view text)
    {
        for (const unsigned char c : text) {
            h_ ^= c;
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(std::uint64_t word)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h_ ^= (word >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
statsHash(const sim::Machine &m)
{
    Fnv1a h;
    h.add(m.statsJson().dump());
    return h.value();
}

/** 4 cores x 2 chips x 1 MCM with trimmed L3/L4, legacy scheduler. */
sim::MachineConfig
twoChipConfig()
{
    sim::MachineConfig cfg;
    cfg.topology = mem::Topology(4, 2, 1);
    cfg.geometry.l3 = {8ULL << 20, 12};
    cfg.geometry.l4 = {32ULL << 20, 24};
    cfg.seed = 7;
    return cfg;
}

constexpr Addr privBase = 0x40'0000;
constexpr Addr privStride = 0x1'0000;
constexpr unsigned privLines = 4;
constexpr unsigned privIterations = 300;

/**
 * Private-region transactions: each iteration increments @p base's
 * first privLines lines in a TBEGIN/TEND region (with an NTSTG and a
 * TDB), then stores the loop counter non-transactionally into the
 * first line, so the next TBEGIN closes a store-cache entry that was
 * re-dirtied after its commit.
 */
isa::Program
privateRegionProgram(Addr base)
{
    isa::Assembler as;
    as.la(9, 0, std::int64_t(base));
    as.lhi(8, privIterations);
    as.label("loop");
    isa::Assembler::TBeginOpts opts;
    opts.tdbBase = 9;
    opts.tdbDisp = 0x800;
    as.tbegin(0xFF, opts);
    as.jnz("skip");
    for (unsigned i = 0; i < privLines; ++i) {
        as.lg(1, 9, std::int64_t(i * lineSizeBytes));
        as.ahi(1, 1);
        as.stg(1, 9, std::int64_t(i * lineSizeBytes));
    }
    as.ntstg(8, 9, std::int64_t(privLines * lineSizeBytes));
    as.tend();
    as.label("skip");
    as.stg(8, 9, 8);
    as.brct(8, "loop");
    as.halt();
    return as.finish();
}

TEST(GoldenDigest, PrivateRegionTxLegacy)
{
    sim::MachineConfig cfg = twoChipConfig();
    // Periodic interrupts abort some transactions: the NTSTG and TDB
    // write paths run as well as commit and close.
    cfg.externalInterruptPeriod = 2003;
    sim::Machine m(cfg);
    std::vector<isa::Program> programs;
    programs.reserve(m.numCpus());
    for (unsigned i = 0; i < m.numCpus(); ++i)
        programs.push_back(
            privateRegionProgram(privBase + i * privStride));
    for (unsigned i = 0; i < m.numCpus(); ++i)
        m.setProgram(i, &programs[i]);
    m.run();
    ASSERT_TRUE(m.allHalted());

    const std::uint64_t stats = statsHash(m);
    Fnv1a image;
    for (unsigned i = 0; i < m.numCpus(); ++i) {
        const Addr base = privBase + i * privStride;
        for (Addr off = 0; off < (privLines + 1) * lineSizeBytes;
             off += 8)
            image.add(m.peekMem(base + off, 8));
        for (Addr off = 0x800; off < 0x900; off += 8)
            image.add(m.peekMem(base + off, 8));
    }
    EXPECT_EQ(stats, 0x2cc159fb4b289d6aULL);
    EXPECT_EQ(image.value(), 0x0546299d5d6be2beULL);
}

/**
 * 6 cores x 4 chips x 3 MCMs = 72 CPUs with trimmed L3/L4: two
 * sharer words per directory line (chip 10, CPUs 60-65, straddles
 * the word boundary) and remote-MCM interventions.
 */
sim::MachineConfig
wideConfig()
{
    sim::MachineConfig cfg;
    cfg.topology = mem::Topology(6, 4, 3);
    cfg.geometry.l3 = {8ULL << 20, 12};
    cfg.geometry.l4 = {32ULL << 20, 24};
    cfg.seed = 7;
    return cfg;
}

/**
 * An update bench on the first @p cpus CPUs of @p machine (every CPU
 * when 0). With the channel subsystem enabled, the device also reads
 * the pool and the lock line while the CPUs run.
 */
std::uint64_t
contendedHash(workload::SyncMethod method,
              const sim::MachineConfig &machine, unsigned iterations,
              unsigned cpus = 0)
{
    workload::UpdateBenchConfig cfg;
    cfg.cpus = cpus != 0 ? cpus : machine.topology.numCpus();
    cfg.poolSize = 2;
    cfg.varsPerOp = 2;
    cfg.method = method;
    cfg.iterations = iterations;
    cfg.machine = machine;
    cfg.machine.activeCpus = cfg.cpus;
    cfg.machine.seed = cfg.seed;
    sim::Machine m(cfg.machine);
    const isa::Program program = workload::buildUpdateProgram(cfg);
    m.setProgramAll(&program);
    if (machine.enableIo) {
        m.io().submit({.write = false, .addr = workload::poolBase,
                       .length = 2 * lineSizeBytes});
        m.io().submit({.write = false,
                       .addr = workload::globalLockAddr,
                       .length = 8});
    }
    m.run();
    EXPECT_TRUE(m.allHalted());
    return statsHash(m);
}

TEST(GoldenDigest, ContendedTBeginLegacy)
{
    EXPECT_EQ(contendedHash(workload::SyncMethod::TBegin,
                            twoChipConfig(), 150),
              0x3a7f6be6250f5dbbULL);
}

TEST(GoldenDigest, ContendedCoarseLockLegacy)
{
    EXPECT_EQ(contendedHash(workload::SyncMethod::CoarseLock,
                            twoChipConfig(), 150),
              0x7e56bb6490d02eb8ULL);
}

TEST(GoldenDigest, ContendedWideCrossMcmLegacy)
{
    EXPECT_EQ(contendedHash(workload::SyncMethod::TBegin, wideConfig(),
                            20),
              0x7faedae0a27d4f1cULL);
    EXPECT_EQ(contendedHash(workload::SyncMethod::CoarseLock,
                            wideConfig(), 20),
              0xa668fc2e3e1bec4fULL);
}

// wideConfig() machines that run only some of their 72 slots: 2 CPUs
// on one chip, 8 across two chips, 30 across five chips and two MCMs.

TEST(GoldenDigest, PartialWideCoarseLockLegacy)
{
    const sim::MachineConfig cfg = wideConfig();
    const auto method = workload::SyncMethod::CoarseLock;
    EXPECT_EQ(contendedHash(method, cfg, 40, 2), 0x3abf708d8b854033ULL);
    EXPECT_EQ(contendedHash(method, cfg, 40, 8), 0x8eed52235e02389dULL);
    EXPECT_EQ(contendedHash(method, cfg, 20, 30), 0x0dc0f9acfe6be2e0ULL);
}

TEST(GoldenDigest, PartialWideTBeginLegacy)
{
    const sim::MachineConfig cfg = wideConfig();
    const auto method = workload::SyncMethod::TBegin;
    EXPECT_EQ(contendedHash(method, cfg, 40, 2), 0x4157f463ecd13236ULL);
    EXPECT_EQ(contendedHash(method, cfg, 40, 8), 0x0e11c8096ba86919ULL);
    EXPECT_EQ(contendedHash(method, cfg, 20, 30), 0x3d7dd780c024a335ULL);
}

TEST(GoldenDigest, PartialWideIoLegacy)
{
    // The channel agent sits in slot 71, on MCM 2, far from the two
    // CPUs on chip 0.
    sim::MachineConfig cfg = wideConfig();
    cfg.enableIo = true;
    EXPECT_EQ(contendedHash(workload::SyncMethod::TBegin, cfg, 40, 2),
              0x92f7d2c2e5ca259aULL);
}

} // namespace
