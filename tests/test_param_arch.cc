/**
 * @file
 * Parameterized architectural sweeps: every GR-save-mask pair
 * position, every legal nesting depth, and the full PIFC x
 * exception-group filtering matrix.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using isa::Assembler;
using isa::Program;

// ---------------------------------------------------------------
// GRSM: each mask bit restores exactly its even/odd GR pair.
// ---------------------------------------------------------------

class GrsmPair : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(GrsmPair, MaskBitRestoresExactlyItsPair)
{
    const unsigned pair = GetParam(); // 0..7, GRs (2p, 2p+1)
    const std::uint8_t mask = std::uint8_t(0x80u >> pair);

    Assembler as;
    // Give every GR a recognizable pre-TX value, transactionally
    // clobber all of them, abort, and check the aftermath.
    for (unsigned r = 0; r < 16; ++r)
        as.lhi(r, 100 + std::int64_t(r));
    as.tbegin(mask);
    as.jnz("handler");
    for (unsigned r = 0; r < 16; ++r) {
        if (r == 15)
            continue; // keep a base register... not needed: TABORT
        as.lhi(r, 200 + std::int64_t(r));
    }
    as.lhi(15, 215);
    as.tabort(0, 256);
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run();

    for (unsigned r = 0; r < 16; ++r) {
        const bool in_pair = r / 2 == pair;
        const std::uint64_t expected =
            in_pair ? 100 + r : 200 + r;
        EXPECT_EQ(m.cpu(0).gr(r), expected) << "GR" << r;
    }
}

INSTANTIATE_TEST_SUITE_P(AllPairs, GrsmPair,
                         ::testing::Range(0u, 8u));

// ---------------------------------------------------------------
// Nesting: every depth up to the architected 16 commits; ETND
// reports the depth at the innermost level.
// ---------------------------------------------------------------

class NestingDepth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(NestingDepth, DepthCommitsAndEtndReports)
{
    const unsigned depth = GetParam();
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 7);
    for (unsigned d = 0; d < depth; ++d)
        as.tbegin(0xFF); // CC0 falls through; aborts land on halt
    as.jnz("out");
    as.etnd(5);
    as.stg(1, 9);
    for (unsigned d = 0; d < depth; ++d)
        as.tend();
    as.label("out");
    as.halt();
    const Program p = as.finish();
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run();
    EXPECT_EQ(m.cpu(0).gr(5), depth);
    EXPECT_EQ(m.cpu(0).stats().value("tx.commits"), 1u);
    EXPECT_EQ(m.peekMem(dataBase, 8), 7u);
    EXPECT_EQ(m.cpu(0).nestingDepth(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Depths, NestingDepth,
                         ::testing::Values(1u, 2u, 3u, 8u, 15u,
                                           16u));

// ---------------------------------------------------------------
// Filtering matrix: PIFC {0,1,2} x exception {arith, decimal,
// access}. Expected: arithmetic/decimal filtered at PIFC >= 1,
// access filtered only at PIFC 2.
// ---------------------------------------------------------------

enum class ExcKind
{
    Divide,
    Decimal,
    Access
};

using FilterParam = std::tuple<unsigned, ExcKind>;

class FilterMatrix : public ::testing::TestWithParam<FilterParam>
{
};

TEST_P(FilterMatrix, FilteredExactlyPerArchitecture)
{
    const unsigned pifc = std::get<0>(GetParam());
    const ExcKind kind = std::get<1>(GetParam());

    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 42);
    as.lhi(2, 0);
    as.lhi(3, 0xF);
    as.tbegin(0xFF, {.pifc = std::uint8_t(pifc)});
    as.jnz("handler");
    switch (kind) {
      case ExcKind::Divide:
        as.dsgr(1, 2);
        break;
      case ExcKind::Decimal:
        as.ap(1, 3);
        break;
      case ExcKind::Access:
        as.lg(4, 9);
        break;
    }
    as.tend();
    as.label("handler");
    as.halt();
    const Program p = as.finish();

    sim::Machine m(smallConfig(1));
    if (kind == ExcKind::Access)
        m.pageTable().markAbsent(dataBase);
    m.setProgram(0, &p);
    m.run();

    const bool expect_filtered =
        kind == ExcKind::Access ? pifc >= 2 : pifc >= 1;
    const auto filtered =
        m.cpu(0).stats().value("tx.abort.filtered-program-interrupt");
    const auto unfiltered = m.cpu(0)
                                .stats()
                                .value("tx.abort.program-interrupt");
    if (expect_filtered) {
        EXPECT_GE(filtered, 1u);
        EXPECT_EQ(m.os().records().size(), 0u);
    } else {
        EXPECT_GE(unfiltered, 1u);
        EXPECT_GE(m.os().records().size(), 1u);
    }
    // Either way the abort is transient: CC2.
    EXPECT_EQ(m.cpu(0).psw().cc, 2);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FilterMatrix,
    ::testing::Combine(::testing::Values(0u, 1u, 2u),
                       ::testing::Values(ExcKind::Divide,
                                         ExcKind::Decimal,
                                         ExcKind::Access)),
    [](const auto &info) {
        const char *kind = "";
        switch (std::get<1>(info.param)) {
          case ExcKind::Divide: kind = "divide"; break;
          case ExcKind::Decimal: kind = "decimal"; break;
          case ExcKind::Access: kind = "access"; break;
        }
        return std::string("pifc") +
               std::to_string(std::get<0>(info.param)) + "_" + kind;
    });

} // namespace
