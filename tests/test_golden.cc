/**
 * @file
 * Golden behaviour gate: FNV-1a hashes of Machine::statsJson() (and,
 * for the private-region run, of the final memory image) for reduced
 * legacy-scheduler runs, blessed on a known-good tree.
 *
 * The determinism tests compare scheduler configurations with each
 * other; these pins compare a run with its own past. A speed-only
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
    EXPECT_EQ(stats, 0x8621a7341ba90d52ULL);
    EXPECT_EQ(image.value(), 0x0546299d5d6be2beULL);
}

/** An update bench on twoChipConfig(): 8 CPUs across two chips. */
std::uint64_t
contendedHash(workload::SyncMethod method)
{
    workload::UpdateBenchConfig cfg;
    cfg.cpus = 8;
    cfg.poolSize = 2;
    cfg.varsPerOp = 2;
    cfg.method = method;
    cfg.iterations = 150;
    cfg.machine = twoChipConfig();
    cfg.machine.activeCpus = cfg.cpus;
    cfg.machine.seed = cfg.seed;
    sim::Machine m(cfg.machine);
    const isa::Program program = workload::buildUpdateProgram(cfg);
    m.setProgramAll(&program);
    m.run();
    EXPECT_TRUE(m.allHalted());
    return statsHash(m);
}

TEST(GoldenDigest, ContendedTBeginLegacy)
{
    EXPECT_EQ(contendedHash(workload::SyncMethod::TBegin),
              0x5ef85120d4596027ULL);
}

TEST(GoldenDigest, ContendedCoarseLockLegacy)
{
    EXPECT_EQ(contendedHash(workload::SyncMethod::CoarseLock),
              0x77f32bd1c43d734dULL);
}

} // namespace
