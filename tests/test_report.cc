/** @file Unit tests for the bench report table and stat collection. */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "workload/report.hh"
#include "ztx_test_util.hh"

namespace {

using ztx::workload::SeriesTable;

TEST(SeriesTable, StoresValuesByRowAndSeries)
{
    SeriesTable t("CPUs", {"a", "b"});
    t.addRow(2, {1.0, 2.0});
    t.addRow(4, {3.0, 4.0});
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_DOUBLE_EQ(t.value(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(t.value(1, 1), 4.0);
}

TEST(SeriesTable, PrintsHeaderAndAlignedRows)
{
    SeriesTable t("CPUs", {"Lock", "TX"});
    t.addRow(2, {10.5, 20.25});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("CPUs"), std::string::npos);
    EXPECT_NE(out.find("Lock"), std::string::npos);
    EXPECT_NE(out.find("TX"), std::string::npos);
    EXPECT_NE(out.find("10.5"), std::string::npos);
    EXPECT_NE(out.find("20.25"), std::string::npos);
    // Two lines: header + one row.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
}

TEST(SeriesTable, EmptyTablePrintsHeaderOnly)
{
    SeriesTable t("x", {"y"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 1);
}

TEST(RunSummary, SumsPerCpuCounters)
{
    using namespace ztx;
    using namespace ztx::test;

    isa::Assembler as;
    as.lhi(8, 20);
    as.label("loop");
    as.tbegin(0x00);
    as.jnz("skip");
    as.ahi(5, 1);
    as.tend();
    as.label("skip");
    as.brct(8, "loop");
    as.halt();
    const isa::Program p = as.finish();

    sim::Machine m(smallConfig(2));
    m.setProgramAll(&p);
    m.run();

    const auto tx = workload::summarizeRun(m, m.now());
    EXPECT_GE(tx.txCommits, 40u); // 20 committed regions per CPU
    EXPECT_GT(tx.instructions, 0u);
    EXPECT_EQ(tx.elapsedCycles, m.now());
    std::uint64_t by_reason = 0;
    for (const auto &[reason, n] : tx.abortsByReason) {
        EXPECT_FALSE(reason.empty());
        by_reason += n;
    }
    EXPECT_EQ(by_reason, tx.txAborts);
}

/**
 * summarizeRun()'s per-reason aborts against the CPUs' per-reason
 * counters: equal sums, and a key only for a reason that fired.
 */
void
expectAbortsByReasonMatchCpus(const ztx::sim::Machine &m)
{
    using namespace ztx;
    const auto sum = workload::summarizeRun(m, m.now());
    std::map<std::string, std::uint64_t> expected;
    for (unsigned i = 0; i < m.numCpus(); ++i) {
        const auto &by_reason = m.cpu(i).abortsByReason();
        for (unsigned slot = 0; slot < tx::abortReasonSlots; ++slot) {
            const std::uint64_t n = by_reason[slot].value();
            EXPECT_EQ(m.cpu(i).stats().value(std::string("tx.abort.") +
                                             tx::abortSlotName(slot)),
                      n);
            if (n != 0)
                expected[tx::abortSlotName(slot)] += n;
        }
    }
    EXPECT_EQ(sum.abortsByReason, expected);
    std::uint64_t total = 0;
    for (const auto &[reason, n] : sum.abortsByReason) {
        EXPECT_NE(n, 0u) << reason;
        total += n;
    }
    EXPECT_EQ(total, sum.txAborts);
}

TEST(RunSummary, AbortsByReasonFromTdcDiagnostics)
{
    using namespace ztx;
    using namespace ztx::test;

    isa::Assembler as;
    as.lhi(8, 40);
    as.label("loop");
    as.tbegin(0x00);
    as.jnz("skip");
    as.ahi(5, 1);
    as.tend();
    as.label("skip");
    as.brct(8, "loop");
    as.halt();
    const isa::Program p = as.finish();

    sim::Machine m(smallConfig(2));
    m.cpu(0).tdcControl().mode = debug::TdcMode::Random;
    m.cpu(0).tdcControl().abortProbability = 0.2;
    m.setProgramAll(&p);
    m.run();

    expectAbortsByReasonMatchCpus(m);
    const auto sum = workload::summarizeRun(m, m.now());
    EXPECT_GT(sum.abortsByReason.count("diagnostic"), 0u);
    EXPECT_EQ(sum.abortsByReason.count("store-overflow"), 0u);
}

TEST(RunSummary, AbortsByReasonFromCapacityOverflow)
{
    using namespace ztx;
    using namespace ztx::test;

    // 70 distinct 128-byte blocks overflow the 64-entry store cache.
    isa::Assembler as;
    as.lhi(7, 3);
    as.label("retry");
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 70);
    as.tbegin(0x00);
    as.jnz("handler");
    as.label("loop");
    as.stg(1, 9, 0);
    as.la(9, 9, 128);
    as.brct(1, "loop");
    as.tend();
    as.label("handler");
    as.brct(7, "retry");
    as.halt();
    const isa::Program p = as.finish();

    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run();

    expectAbortsByReasonMatchCpus(m);
    const auto sum = workload::summarizeRun(m, m.now());
    ASSERT_EQ(sum.abortsByReason.size(), 1u);
    EXPECT_EQ(sum.abortsByReason.at("store-overflow"), 3u);
}

} // namespace
