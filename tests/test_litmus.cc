/**
 * @file
 * Litmus subsystem tests: DSL parsing and validation, compilation
 * to programs/fault plans, the exhaustive enumerator's verdicts on
 * the whole corpus, byte-identity of results across seeds, the
 * randomized-steer subset property, the OnFootprint-inside-
 * enumeration regression, the frontier-cap contract (a capped
 * enumeration never reports "ok"), and witness rendering for a
 * deliberately wrong spec.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "debug/litmus_dump.hh"
#include "litmus/corpus.hh"
#include "litmus/dsl.hh"
#include "litmus/enumerate.hh"

namespace {

using namespace ztx;

litmus::Test
parseOk(const std::string &src)
{
    const litmus::ParseResult pr = litmus::parse(src);
    EXPECT_TRUE(pr.ok) << pr.error;
    return pr.test;
}

std::string
parseError(const std::string &src)
{
    const litmus::ParseResult pr = litmus::parse(src);
    EXPECT_FALSE(pr.ok) << "expected a parse error";
    return pr.error;
}

litmus::EnumResult
enumerateSrc(const std::string &src,
             const litmus::EnumOptions &opt = {})
{
    const litmus::Compiled c = litmus::compile(parseOk(src));
    return litmus::enumerate(c, opt);
}

// ---------------------------------------------------------------
// DSL

TEST(LitmusDsl, ParsesClassicShape)
{
    const litmus::Test t = parseOk(R"(
litmus sb
init x=0 y=0
thread P0 { st x 1  ld y r0 }
thread P1 { st y 1  ld x r0 }
forbidden P0.r0=0 & P1.r0=0
allowed *
)");
    EXPECT_EQ(t.name, "sb");
    ASSERT_EQ(t.threads.size(), 2u);
    EXPECT_EQ(t.threads[0].name, "P0");
    EXPECT_EQ(t.threads[0].ops.size(), 2u);
    EXPECT_EQ(t.threads[0].numRegs, 1u);
    EXPECT_FALSE(t.threads[0].hasTx);
    ASSERT_EQ(t.locs.size(), 2u);
    EXPECT_TRUE(t.allowAll);
    ASSERT_EQ(t.forbidden.size(), 1u);
    EXPECT_EQ(t.forbidden[0].eqs.size(), 2u);
}

TEST(LitmusDsl, ParsesTxBlocksAndFaults)
{
    const litmus::Test t = parseOk(R"(
litmus f
retries 1
thread P0 { tx { st x 1  ntst y 2  abort 3 } }
fault on_footprint x conflict x
fault on_abort P0 1 spurious P0
)");
    EXPECT_EQ(t.retries, 1u);
    EXPECT_TRUE(t.threads[0].hasTx);
    EXPECT_TRUE(t.threads[0].hasUnconstrainedTx);
    ASSERT_EQ(t.faults.size(), 2u);
    EXPECT_EQ(t.faults[0].trigger,
              litmus::Fault::Trigger::OnFootprint);
    EXPECT_EQ(t.faults[0].kind, litmus::Fault::Kind::Conflict);
    EXPECT_EQ(t.faults[1].trigger,
              litmus::Fault::Trigger::OnAbort);
    EXPECT_EQ(t.faults[1].watchThread, 0);
    EXPECT_EQ(t.faults[1].target, 0);
}

TEST(LitmusDsl, RejectsNestedTx)
{
    parseError("litmus t thread P0 { tx { tx { st x 1 } } }");
}

TEST(LitmusDsl, RejectsNtstOutsideTx)
{
    parseError("litmus t thread P0 { ntst x 1 }");
}

TEST(LitmusDsl, RejectsAbortOutsideTx)
{
    parseError("litmus t thread P0 { abort }");
}

TEST(LitmusDsl, RejectsCtxBodyOverFootprintLimit)
{
    // 5 distinct locations exceed the constrained-tx octoword
    // limit (tx/constraints.hh: 4 aligned octowords).
    parseError("litmus t thread P0 { ctx { st a 1  st b 1  st c 1"
               "  st d 1  st e 1 } }");
}

TEST(LitmusDsl, RejectsEqOnUnloadedRegister)
{
    parseError("litmus t thread P0 { ld x r0 } allowed P0.r3=0");
}

TEST(LitmusDsl, RejectsOkEqOnThreadWithoutTx)
{
    parseError("litmus t thread P0 { st x 1 } allowed P0.ok=1");
}

TEST(LitmusDsl, RejectsFootprintFaultOnOtherLocation)
{
    // An on_footprint trigger must aim its fault at the watched
    // location — anything else can never fire coherently.
    parseError("litmus t thread P0 { tx { ld x r0 } }"
               " fault on_footprint x conflict y");
}

// ---------------------------------------------------------------
// Compilation

TEST(LitmusCompile, LocationsGetTheirOwnLines)
{
    const litmus::Compiled c = litmus::compile(parseOk(
        "litmus t thread P0 { st x 1  st y 2  st z 3 }"));
    ASSERT_EQ(c.locAddr.size(), 3u);
    EXPECT_EQ(c.locAddr[0], litmus::litmusDataBase);
    EXPECT_EQ(c.locAddr[1] - c.locAddr[0], Addr(lineSizeBytes));
    EXPECT_EQ(c.locAddr[2] - c.locAddr[1], Addr(lineSizeBytes));
    ASSERT_EQ(c.programs.size(), 1u);
    EXPECT_EQ(c.config.activeCpus, 1u);
}

TEST(LitmusCompile, FaultStepsTargetTheCompiledLines)
{
    const litmus::Compiled c = litmus::compile(parseOk(
        "litmus t thread P0 { tx { ld x r0  st y 1 } }"
        " fault on_footprint y conflict y"));
    ASSERT_EQ(c.plan.scenario.size(), 1u);
    const inject::ScenarioStep &s = c.plan.scenario[0];
    EXPECT_EQ(s.trigger, inject::TriggerKind::OnFootprint);
    EXPECT_EQ(s.kind, inject::FaultKind::TargetedConflict);
    EXPECT_EQ(s.line, c.locAddr[1]);
}

// ---------------------------------------------------------------
// The corpus

TEST(LitmusCorpus, HasAtLeastTwentyFiveTests)
{
    EXPECT_GE(litmus::corpus().size(), 25u);
}

TEST(LitmusCorpus, EveryTestEnumeratesToOk)
{
    for (const litmus::CorpusTest &ct : litmus::corpus()) {
        const litmus::ParseResult pr = litmus::parse(ct.src);
        ASSERT_TRUE(pr.ok) << ct.name << ": " << pr.error;
        EXPECT_EQ(pr.test.name, ct.name);
        const litmus::Compiled c = litmus::compile(pr.test);
        const litmus::EnumResult res = litmus::enumerate(c);
        EXPECT_EQ(res.verdict, "ok")
            << ct.name << ": " << res.capReason
            << (res.violations.empty() ? ""
                                       : " viol: " +
                                             res.violations[0]);
        EXPECT_FALSE(res.capped) << ct.name;
        EXPECT_GT(res.schedulesExplored, 0u) << ct.name;
        EXPECT_FALSE(res.outcomes.empty()) << ct.name;
    }
}

// ---------------------------------------------------------------
// Directed matrix: byte-identical verdicts across seeds. Seeds move
// cycle values only, and enumResultJson excludes every cycle-valued
// quantity.

TEST(LitmusMatrix, ResultJsonByteIdenticalAcrossSeeds)
{
    const std::vector<std::string> names = {
        "sb", "sb_tx", "inc_ctx", "mp_tx_both",
        "conflict_directed", "tabort_rollback"};
    for (const litmus::CorpusTest &ct : litmus::corpus()) {
        if (std::find(names.begin(), names.end(), ct.name) ==
            names.end())
            continue;
        const litmus::Compiled c = litmus::compile(parseOk(ct.src));
        litmus::EnumOptions base;
        const std::string golden =
            litmus::enumResultJson(c, litmus::enumerate(c, base))
                .dump();
        for (const std::uint64_t seed :
             {std::uint64_t(1), std::uint64_t(7),
              std::uint64_t(12345)}) {
            litmus::EnumOptions opt;
            opt.seed = seed;
            const std::string got =
                litmus::enumResultJson(c, litmus::enumerate(c, opt))
                    .dump();
            EXPECT_EQ(got, golden) << ct.name << " seed=" << seed;
        }
    }
}

// ---------------------------------------------------------------
// Property: randomized-steer outcomes are a subset of the
// exhaustive outcome set — never a superset.

void
expectRandomSubset(const litmus::Compiled &c, const char *what)
{
    const litmus::EnumResult ex = litmus::enumerate(c);
    ASSERT_EQ(ex.verdict, "ok") << what;
    const litmus::RandomResult rr =
        litmus::runRandom(c, 200, 0xfeed);
    EXPECT_EQ(rr.runs + rr.cappedRuns, 200u) << what;
    EXPECT_GT(rr.runs, 0u) << what;
    for (const auto &[state, count] : rr.outcomes)
        EXPECT_TRUE(ex.outcomes.count(state))
            << what << ": random-only outcome " << state;
}

TEST(LitmusProperty, RandomOutcomesSubsetOfExhaustiveCorpus)
{
    for (const char *name :
         {"sb", "sb_tx", "inc_tx", "mp_ntstg", "iriw"}) {
        for (const litmus::CorpusTest &ct : litmus::corpus()) {
            if (std::string(ct.name) != name)
                continue;
            expectRandomSubset(litmus::compile(parseOk(ct.src)),
                               name);
        }
    }
}

TEST(LitmusProperty, RandomOutcomesSubsetForGeneratedPrograms)
{
    // Random 2-3 thread programs over two locations: st/ld/add
    // bodies, some transactional. Fixed generator seed keeps the
    // suite deterministic.
    Rng gen(0xC0FFEE);
    for (unsigned p = 0; p < 6; ++p) {
        const unsigned nthreads = 2 + unsigned(gen.nextBounded(2));
        std::string src = "litmus gen" + std::to_string(p) +
                          "\nretries 1\n";
        for (unsigned t = 0; t < nthreads; ++t) {
            src += "thread T" + std::to_string(t) + " { ";
            const bool tx = gen.nextBounded(2) == 0;
            if (tx)
                src += "tx { ";
            const unsigned nops = 1 + unsigned(gen.nextBounded(2));
            unsigned reg = 0;
            for (unsigned o = 0; o < nops; ++o) {
                const char *loc = gen.nextBounded(2) ? "y" : "x";
                switch (gen.nextBounded(3)) {
                  case 0:
                    src += std::string("st ") + loc + " " +
                           std::to_string(1 + t) + " ";
                    break;
                  case 1:
                    src += std::string("ld ") + loc + " r" +
                           std::to_string(reg++) + " ";
                    break;
                  default:
                    src += std::string("add ") + loc + " 1 ";
                    break;
                }
            }
            if (tx)
                src += "} ";
            src += "}\n";
        }
        src += "allowed *\n";
        expectRandomSubset(litmus::compile(parseOk(src)),
                           src.c_str());
    }
}

// ---------------------------------------------------------------
// Regression: a scenario trigger (OnFootprint) fires *inside* the
// enumerated schedules — trigger evaluation points coincide with
// enumeration decision points (the injector's beforeStep runs
// before every steered step).

TEST(LitmusRegression, OnFootprintFiresInEveryEnumeratedSchedule)
{
    const litmus::EnumResult res = enumerateSrc(R"(
litmus reg_onfp
retries 1
thread P0 { tx { ld x r0  st y 1 } }
thread P1 { st z 3 }
fault on_footprint x conflict x
allowed *
)");
    EXPECT_EQ(res.verdict, "ok");
    EXPECT_GT(res.schedulesExplored, 1u);
    // The watched location enters P0's footprint in every schedule
    // (P0 always runs its transaction), so the directed conflict
    // must have fired in every single enumerated run...
    EXPECT_GE(res.scenarioFiredMin, 1u);
    EXPECT_GE(res.scenarioFiredTotal, res.schedulesExplored);
    // ...and a fired targeted conflict aborts the transaction at
    // least once somewhere in the frontier.
    EXPECT_GT(res.abortsTotal, 0u);
}

// ---------------------------------------------------------------
// Frontier caps: hitting any cap forces "frontier-capped" (or
// "violation"), never "ok".

TEST(LitmusFrontier, ScheduleCapNeverReportsOk)
{
    for (const litmus::CorpusTest &ct : litmus::corpus()) {
        if (std::string(ct.name) != "iriw_tx_readers")
            continue;
        litmus::EnumOptions opt;
        opt.maxSchedules = 10;
        const litmus::EnumResult res =
            litmus::enumerate(litmus::compile(parseOk(ct.src)),
                              opt);
        EXPECT_EQ(res.verdict, "frontier-capped");
        EXPECT_TRUE(res.capped);
        EXPECT_EQ(res.capReason, "schedules");
        EXPECT_EQ(res.schedulesExplored, 10u);
    }
}

TEST(LitmusFrontier, StepCapNeverReportsOk)
{
    litmus::EnumOptions opt;
    opt.maxStepsPerRun = 4;
    const litmus::EnumResult res = enumerateSrc(
        "litmus tiny thread P0 { st x 1 } allowed x=1", opt);
    EXPECT_EQ(res.verdict, "frontier-capped");
    EXPECT_TRUE(res.capped);
    EXPECT_EQ(res.capReason, "steps");
}

// ---------------------------------------------------------------
// Violations: a deliberately wrong spec yields a violation verdict
// with a renderable witness schedule.

TEST(LitmusViolation, WrongForbiddenProducesRenderedWitness)
{
    const litmus::ParseResult pr = litmus::parse(R"(
litmus wrong
thread P0 { st x 1 }
thread P1 { ld x r0 }
forbidden x=1
allowed *
)");
    ASSERT_TRUE(pr.ok) << pr.error;
    const litmus::Compiled c = litmus::compile(pr.test);
    const litmus::EnumResult res = litmus::enumerate(c);
    EXPECT_EQ(res.verdict, "violation");
    ASSERT_FALSE(res.violations.empty());
    ASSERT_TRUE(res.witness.has_value());
    EXPECT_FALSE(res.witness->steps.empty());
    EXPECT_FALSE(res.witness->events.empty());
    const std::string dump =
        debug::litmusWitnessDump(c, *res.witness);
    EXPECT_NE(dump.find("wrong"), std::string::npos);
    EXPECT_NE(dump.find("x=1"), std::string::npos);
    EXPECT_NE(dump.find("schedule"), std::string::npos);
    EXPECT_NE(dump.find("P0"), std::string::npos);
}

TEST(LitmusViolation, ExactAllowedSetConstrains)
{
    // The exact outcome is x=1; claiming only x=0 must violate.
    const litmus::EnumResult res = enumerateSrc(
        "litmus bad_exact thread P0 { st x 1 } allowed x=0");
    EXPECT_EQ(res.verdict, "violation");
    EXPECT_FALSE(res.violations.empty());
}

} // namespace
