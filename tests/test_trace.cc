/** @file Trace facility and PER branch events. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/trace.hh"
#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using isa::Assembler;
using isa::Program;

/** RAII: capture trace output and restore global state. */
class TraceCapture
{
  public:
    TraceCapture() { trace::setSink(&stream_); }

    ~TraceCapture()
    {
        trace::setSink(nullptr);
        trace::disableAll();
    }

    std::string text() const { return stream_.str(); }

  private:
    std::ostringstream stream_;
};

Program
txProgram()
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.tbegin(0xFF);
    as.jnz("out");
    as.lgfo(1, 9);
    as.ahi(1, 1);
    as.stg(1, 9);
    as.tend();
    as.label("out");
    as.halt();
    return as.finish();
}

TEST(Trace, DisabledByDefaultEmitsNothing)
{
    TraceCapture cap;
    const Program p = txProgram();
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run();
    EXPECT_TRUE(cap.text().empty());
}

TEST(Trace, TxCategoryShowsBeginAndCommit)
{
    TraceCapture cap;
    trace::enable(trace::Category::Tx);
    const Program p = txProgram();
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run();
    const std::string text = cap.text();
    EXPECT_NE(text.find("[tx] cpu0 TBEGIN"), std::string::npos);
    EXPECT_NE(text.find("[tx] cpu0 TEND commit"), std::string::npos);
}

TEST(Trace, MillicodeCategoryShowsAborts)
{
    TraceCapture cap;
    trace::enable(trace::Category::Millicode);
    Assembler as;
    as.tbegin(0xFF);
    as.jnz("out");
    as.tabort(0, 256);
    as.label("out");
    as.halt();
    const Program p = as.finish();
    sim::Machine m(smallConfig(1));
    m.setProgram(0, &p);
    m.run();
    EXPECT_NE(cap.text().find("abort tabort"), std::string::npos);
}

TEST(Trace, XiCategoryShowsInterrogates)
{
    TraceCapture cap;
    trace::enable(trace::Category::Xi);
    Assembler w;
    w.la(9, 0, std::int64_t(dataBase));
    w.lhi(1, 1);
    w.stg(1, 9);
    w.halt();
    const Program writer = w.finish();
    sim::Machine m(smallConfig(2));
    // CPU1 reads the line first so CPU0's store must interrogate.
    Assembler r;
    r.la(9, 0, std::int64_t(dataBase));
    r.lg(1, 9);
    r.halt();
    const Program reader = r.finish();
    m.setProgram(1, &reader);
    while (!m.cpu(1).halted())
        m.cpu(1).step();
    m.setProgram(0, &writer);
    while (!m.cpu(0).halted())
        m.cpu(0).step();
    EXPECT_NE(cap.text().find("read-only XI to cpu1"),
              std::string::npos);
}

TEST(Trace, EnableFromStringParsesLists)
{
    trace::disableAll();
    trace::enableFromString("tx,io");
    EXPECT_TRUE(trace::enabled(trace::Category::Tx));
    EXPECT_TRUE(trace::enabled(trace::Category::Io));
    EXPECT_FALSE(trace::enabled(trace::Category::Xi));
    trace::disableAll();
}

TEST(Trace, CategoryNamesRoundTrip)
{
    EXPECT_STREQ(trace::categoryName(trace::Category::Cache),
                 "cache");
    EXPECT_STREQ(trace::categoryName(trace::Category::Exec), "exec");
}

TEST(PerBranch, EventOnBranchIntoRange)
{
    Assembler as;
    as.lhi(1, 5);
    as.cghi(1, 5);
    as.jz("target"); // taken branch into the watched range
    as.lhi(2, 1);
    as.label("target");
    as.lhi(3, 9);
    as.halt();
    const Program p = as.finish();
    const Addr target = p.labelAddr("target");

    sim::Machine m(smallConfig(1));
    m.cpu(0).perControls().branchRange = {true, target, target};
    m.setProgram(0, &p);
    m.run();
    EXPECT_TRUE(m.cpu(0).halted());
    EXPECT_EQ(m.cpu(0).gr(3), 9u);
    EXPECT_EQ(m.os().countOf(tx::InterruptCode::PerEvent), 1u);
}

TEST(PerBranch, NoEventWhenBranchNotTaken)
{
    Assembler as;
    as.lhi(1, 5);
    as.cghi(1, 6); // CC != 0
    as.jz("target");
    as.lhi(2, 1);
    as.label("target");
    as.halt();
    const Program p = as.finish();
    sim::Machine m(smallConfig(1));
    m.cpu(0).perControls().branchRange =
        {true, p.labelAddr("target"), p.labelAddr("target")};
    m.setProgram(0, &p);
    m.run();
    EXPECT_EQ(m.os().countOf(tx::InterruptCode::PerEvent), 0u);
}

TEST(PerBranch, SuppressedInsideTransaction)
{
    Assembler as;
    as.tbegin(0xFF);
    as.jnz("out");
    as.lhi(1, 1);
    as.cghi(1, 1);
    as.jz("inside");
    as.label("inside");
    as.tend();
    as.label("out");
    as.halt();
    const Program p = as.finish();
    sim::Machine m(smallConfig(1));
    m.cpu(0).perControls().branchRange =
        {true, p.labelAddr("inside"), p.labelAddr("inside")};
    m.cpu(0).perControls().suppressInTx = true;
    m.setProgram(0, &p);
    m.run();
    EXPECT_EQ(m.os().countOf(tx::InterruptCode::PerEvent), 0u);
    EXPECT_EQ(m.cpu(0).stats().value("tx.commits"), 1u);
}

TEST(PerBranch, InsideTxWithoutSuppressionAborts)
{
    Assembler as;
    as.lhi(0, 0);
    as.label("retry");
    as.tbegin(0xFF);
    as.jnz("handler");
    as.lhi(1, 1);
    as.cghi(1, 1);
    as.jz("inside");
    as.label("inside");
    as.tend();
    as.j("out");
    as.label("handler");
    as.ahi(0, 1);
    as.cijnl(0, 3, "out");
    as.j("retry");
    as.label("out");
    as.halt();
    const Program p = as.finish();
    sim::Machine m(smallConfig(1));
    m.cpu(0).perControls().branchRange =
        {true, p.labelAddr("inside"), p.labelAddr("inside")};
    m.setProgram(0, &p);
    m.run();
    EXPECT_GT(m.os().countOf(tx::InterruptCode::PerEvent), 0u);
    EXPECT_EQ(m.cpu(0).stats().value("tx.commits"), 0u);
}

} // namespace
