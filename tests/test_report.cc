/** @file Unit tests for the bench report table and stat collection. */

#include <gtest/gtest.h>

#include <sstream>

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

} // namespace
