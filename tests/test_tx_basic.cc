/**
 * @file
 * Transactional-execution semantics: atomicity, rollback, condition
 * codes, register save masks, nesting, NTSTG, footprint limits, and
 * isolation against other CPUs.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>

#include "tx/tdb.hh"
#include "ztx_test_util.hh"

namespace {

using namespace ztx;
using namespace ztx::test;
using isa::Assembler;
using isa::Program;

std::unique_ptr<sim::Machine>
runProgram(const Program &program,
           std::function<void(sim::Machine &)> setup = {})
{
    auto m = std::make_unique<sim::Machine>(smallConfig(1));
    if (setup)
        setup(*m);
    m->setProgram(0, &program);
    m->run();
    return m;
}

TEST(TxBasic, AbortReasonSlotsAreDistinct)
{
    // The per-reason abort counters are indexed by these slots: two
    // named reasons sharing one would merge their counters.
    // Unnamed values share the catch-all slot, so each slot has one
    // name and "tx.abort.?" is a single key.
    std::set<unsigned> slots;
    for (unsigned code = 0; code <= 300; ++code) {
        const auto reason = tx::AbortReason(code);
        const unsigned slot = tx::abortReasonSlot(reason);
        EXPECT_LT(slot, tx::abortReasonSlots) << code;
        EXPECT_STREQ(tx::abortSlotName(slot), tx::abortReasonName(reason))
            << code;
        if (std::string(tx::abortReasonName(reason)) == "?")
            EXPECT_EQ(slot, tx::abortReasonSlots - 1) << code;
        else
            EXPECT_TRUE(slots.insert(slot).second) << code;
    }
    EXPECT_EQ(slots.size() + 1, tx::abortReasonSlots);
}

TEST(TxBasic, CommitMakesStoresVisible)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 11);
    as.lhi(2, 22);
    as.tbegin(0xFF);
    as.jnz("failed");
    as.stg(1, 9, 0);
    as.stg(2, 9, 256);
    as.tend();
    as.label("failed");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->peekMem(dataBase, 8), 11u);
    EXPECT_EQ(m->peekMem(dataBase + 256, 8), 22u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 1u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.aborts"), 0u);
}

TEST(TxBasic, TBeginSetsCcZero)
{
    Assembler as;
    as.lhi(1, 3); // pollute CC via LTR
    as.ltr(1, 1); // CC2
    as.tbegin(0xFF);
    as.jnz("failed");
    as.tend();
    as.label("failed");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 1u);
}

TEST(TxBasic, TAbortRollsBackStores)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 99);
    as.tbegin(0xFF);
    as.jnz("aborted");
    as.stg(1, 9, 0);
    as.tabort(0, 256);
    as.label("aborted");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p, [](sim::Machine &mm) {
        mm.memory().write(dataBase, 5, 8);
    });
    EXPECT_EQ(m->peekMem(dataBase, 8), 5u); // original value intact
    EXPECT_EQ(m->cpu(0).stats().value("tx.aborts"), 1u);
}

TEST(TxBasic, TAbortConditionCodeFromCodeParity)
{
    // Even code -> CC2 (transient); odd -> CC3 (permanent).
    for (const auto &[code, expected_cc] :
         {std::pair<int, int>{256, 2}, std::pair<int, int>{257, 3}}) {
        Assembler as;
        as.tbegin(0xFF);
        as.jnz("aborted");
        as.tabort(0, code);
        as.label("aborted");
        as.halt();
        const Program p = as.finish();
        auto m = runProgram(p);
        EXPECT_EQ(m->cpu(0).psw().cc, expected_cc) << code;
    }
}

TEST(TxBasic, AbortResumesAfterTBegin)
{
    Assembler as;
    as.lhi(5, 0);
    as.tbegin(0x00); // do not save/restore GR pair of 5!
    as.jnz("handler");
    as.lhi(5, 1); // only on the initial (pre-abort) pass
    as.tabort(0, 256);
    as.label("handler");
    as.ahi(5, 10);
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    // GR5 survived the abort with its in-TX value (not in the save
    // mask): 1 + 10.
    EXPECT_EQ(m->cpu(0).gr(5), 11u);
}

TEST(TxBasic, GrsmRestoresSelectedPairsOnly)
{
    Assembler as;
    as.lhi(2, 100); // pair 1 (GRs 2,3) -> saved below
    as.lhi(3, 101);
    as.lhi(4, 200); // pair 2 (GRs 4,5) -> not saved
    // Save mask: bit 1 of the left-to-right mask covers GRs 2-3.
    as.tbegin(0x40);
    as.jnz("handler");
    as.lhi(2, 1);
    as.lhi(3, 2);
    as.lhi(4, 3);
    as.tabort(0, 256);
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).gr(2), 100u); // restored
    EXPECT_EQ(m->cpu(0).gr(3), 101u); // restored
    EXPECT_EQ(m->cpu(0).gr(4), 3u);   // survives with TX value
}

TEST(TxBasic, NestingDepthViaEtnd)
{
    Assembler as;
    as.etnd(1); // depth 0 outside
    as.tbegin(0xFF);
    as.jnz("out");
    as.etnd(2); // 1
    as.tbegin(0xFF);
    as.jnz("out");
    as.etnd(3); // 2
    as.tend();
    as.etnd(4); // 1
    as.tend();
    as.etnd(5); // 0
    as.label("out");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).gr(1), 0u);
    EXPECT_EQ(m->cpu(0).gr(2), 1u);
    EXPECT_EQ(m->cpu(0).gr(3), 2u);
    EXPECT_EQ(m->cpu(0).gr(4), 1u);
    EXPECT_EQ(m->cpu(0).gr(5), 0u);
    // Only the outermost TEND commits.
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 1u);
}

TEST(TxBasic, NestedAbortFlattensToOutermost)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 7);
    as.tbegin(0xFF);
    as.jnz("handler");
    as.stg(1, 9, 0); // outer-level store
    as.tbegin(0xFF);
    as.jnz("handler");
    as.stg(1, 9, 256); // inner-level store
    as.tabort(0, 256); // aborts the WHOLE nest
    as.label("handler");
    as.etnd(6);
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    // Both levels rolled back; nesting depth reset to 0; execution
    // resumed after the outermost TBEGIN.
    EXPECT_EQ(m->peekMem(dataBase, 8), 0u);
    EXPECT_EQ(m->peekMem(dataBase + 256, 8), 0u);
    EXPECT_EQ(m->cpu(0).gr(6), 0u);
    EXPECT_EQ(m->cpu(0).stats().value("tx.aborts"), 1u);
}

TEST(TxBasic, MaxNestingDepthExceededAborts)
{
    Assembler as;
    as.lhi(1, 20); // more than the architected 16
    as.label("nest");
    as.tbegin(0xFF);
    as.jnz("handler");
    as.brct(1, "nest");
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).psw().cc, 3); // permanent
    EXPECT_EQ(m->cpu(0).stats().value("tx.abort.nesting-depth-exceeded"), 1u);
    EXPECT_EQ(m->cpu(0).nestingDepth(), 0u);
}

TEST(TxBasic, TendOutsideTxSetsCc2)
{
    Assembler as;
    as.tend();
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).psw().cc, 2);
}

TEST(TxBasic, RestrictedInstructionAbortsPermanently)
{
    Assembler as;
    as.tbegin(0xFF);
    as.jnz("handler");
    as.lpswe(); // privileged -> restricted in TX
    as.tend();
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).psw().cc, 3);
    EXPECT_EQ(m->cpu(0).stats().value("tx.abort.restricted-instruction"), 1u);
}

TEST(TxBasic, ArModificationBlockedByControl)
{
    Assembler as;
    as.lhi(1, 5);
    as.tbegin(0xFF, {.allowArMod = false});
    as.jnz("handler");
    as.sar(2, 1); // AR modification with A control 0
    as.tend();
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).psw().cc, 3);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 0u);
}

TEST(TxBasic, FprModificationBlockedByControl)
{
    Assembler as;
    as.lhi(1, 5);
    as.tbegin(0xFF, {.allowFprMod = false});
    as.jnz("handler");
    as.ldgr(0, 1);
    as.tend();
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).psw().cc, 3);
}

TEST(TxBasic, FprModificationAllowedWhenControlSet)
{
    Assembler as;
    as.lhi(1, 5);
    as.tbegin(0xFF, {.allowFprMod = true});
    as.jnz("handler");
    as.ldgr(0, 1);
    as.tend();
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 1u);
    EXPECT_EQ(m->cpu(0).fpr(0), 5u);
}

TEST(TxBasic, NestedControlsAreAnded)
{
    // Outer allows AR mods, inner does not: the effective control is
    // the AND, so SAR after the inner TBEGIN aborts.
    Assembler as;
    as.lhi(1, 5);
    as.tbegin(0xFF, {.allowArMod = true});
    as.jnz("handler");
    as.tbegin(0xFF, {.allowArMod = false});
    as.jnz("handler");
    as.sar(2, 1);
    as.tend();
    as.tend();
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 0u);
    EXPECT_EQ(m->cpu(0).psw().cc, 3);
}

TEST(TxBasic, NtstgSurvivesAbort)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 42);
    as.lhi(2, 77);
    as.tbegin(0xFF);
    as.jnz("handler");
    as.stg(1, 9, 0);      // normal TX store: rolled back
    as.ntstg(2, 9, 512);  // NTSTG breadcrumb: survives
    as.tabort(0, 256);
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->peekMem(dataBase, 8), 0u);
    EXPECT_EQ(m->peekMem(dataBase + 512, 8), 77u);
}

TEST(TxBasic, NtstgIsolatedUntilAbortOrCommit)
{
    // NTSTG data commits on TEND as well.
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(2, 88);
    as.tbegin(0xFF);
    as.jnz("handler");
    as.ntstg(2, 9, 512);
    as.tend();
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->peekMem(dataBase + 512, 8), 88u);
}

TEST(TxBasic, TdbStoredOnAbort)
{
    constexpr Addr tdb_addr = dataBase + 0x1000;
    Assembler as;
    as.la(8, 0, std::int64_t(tdb_addr));
    as.lhi(7, 1234); // visible in the TDB GR snapshot
    as.tbegin(0xFF, {.tdbBase = 8});
    as.jnz("handler");
    as.lhi(7, 5678);
    as.tabort(0, 258);
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    const tx::Tdb tdb = tx::Tdb::load(m->memory(), tdb_addr);
    EXPECT_EQ(tdb.format, 1);
    EXPECT_EQ(tdb.abortCode, 258u);
    // GR7 at the time of abort (before restore) was 5678.
    EXPECT_EQ(tdb.grs[7], 5678u);
    // GR7 after the abort is restored to its pre-TX value.
    EXPECT_EQ(m->cpu(0).gr(7), 1234u);
}

TEST(TxBasic, NoTdbStoreWithoutAddress)
{
    Assembler as;
    as.tbegin(0xFF); // no TDB operand
    as.jnz("handler");
    as.tabort(0, 256);
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    // The would-be TDB region is untouched.
    EXPECT_EQ(m->peekMem(dataBase + 0x1000 + 8, 8), 0u);
}

TEST(TxBasic, StoreFootprintOverflowAborts)
{
    // The gathering store cache holds 64 x 128-byte entries; storing
    // to 70 distinct 128-byte blocks must abort with CC3.
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 70);
    as.lhi(2, 1);
    as.tbegin(0xFF);
    as.jnz("handler");
    as.label("loop");
    as.stg(2, 9, 0);
    as.la(9, 9, 128);
    as.brct(1, "loop");
    as.tend();
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).psw().cc, 3);
    EXPECT_EQ(m->cpu(0).stats().value("tx.abort.store-overflow"), 1u);
    // Nothing leaked to memory.
    EXPECT_EQ(m->peekMem(dataBase, 8), 0u);
    EXPECT_EQ(m->peekMem(dataBase + 128 * 32, 8), 0u);
}

/**
 * Run @p store_third after two transactional stores fill a 2-entry
 * store cache; the third store (to a new 128-byte block) overflows.
 */
std::unique_ptr<sim::Machine>
runFullStoreCacheTx(const std::function<void(Assembler &)> &store_third)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.la(8, 0, std::int64_t(dataBase) + 256);
    as.lhi(1, 0);
    as.lhi(2, 1);
    as.tbegin(0xFF);
    as.jnz("handler");
    as.stg(2, 9, 0);
    as.stg(2, 9, 128);
    store_third(as);
    as.tend();
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    sim::MachineConfig cfg = smallConfig(1);
    cfg.tm.storeCacheEntries = 2;
    auto m = std::make_unique<sim::Machine>(cfg);
    m->setProgram(0, &p);
    m->run();
    return m;
}

void
expectStoreOverflowLeftMemoryUnchanged(sim::Machine &m)
{
    EXPECT_TRUE(m.cpu(0).halted());
    EXPECT_EQ(m.cpu(0).psw().cc, 3);
    EXPECT_EQ(m.cpu(0).stats().value("tx.commits"), 0u);
    EXPECT_EQ(m.cpu(0).stats().value("tx.aborts"), 1u);
    EXPECT_EQ(m.cpu(0).stats().value("tx.abort.store-overflow"), 1u);
    for (const Addr off : {0, 128, 256})
        EXPECT_EQ(m.peekMem(dataBase + off, 8), 0u) << off;
}

TEST(TxBasic, StgIntoFullStoreCacheAbortsWithStoreOverflow)
{
    auto m = runFullStoreCacheTx(
        [](Assembler &as) { as.stg(2, 8, 0); });
    expectStoreOverflowLeftMemoryUnchanged(*m);
}

TEST(TxBasic, CsIntoFullStoreCacheAbortsWithStoreOverflow)
{
    // GR1 = 0 matches the untouched target, so CS tries to store.
    auto m = runFullStoreCacheTx(
        [](Assembler &as) { as.cs(1, 2, 8); });
    expectStoreOverflowLeftMemoryUnchanged(*m);
}

TEST(TxBasic, StoreFootprintWithinLimitCommits)
{
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.lhi(1, 60);
    as.lhi(2, 1);
    as.tbegin(0xFF);
    as.jnz("handler");
    as.label("loop");
    as.stg(2, 9, 0);
    as.la(9, 9, 128);
    as.brct(1, "loop");
    as.tend();
    as.label("handler");
    as.halt();
    const Program p = as.finish();
    auto m = runProgram(p);
    EXPECT_EQ(m->cpu(0).stats().value("tx.commits"), 1u);
    EXPECT_EQ(m->peekMem(dataBase + 128 * 59, 8), 1u);
}

TEST(TxBasic, TxStoresInvisibleToOtherCpuUntilCommit)
{
    // CPU0 stores transactionally and spins; CPU1 reads the line.
    // CPU0 stiff-arms the XI while it can, then hang avoidance
    // aborts it; CPU1 must read the pre-transaction value.
    Assembler w;
    w.la(9, 0, std::int64_t(dataBase));
    w.lhi(1, 99);
    w.tbegin(0xFF);
    w.jnz("done");
    w.stg(1, 9, 0);
    w.label("spin");
    w.j("spin");
    w.label("done");
    w.halt();
    const Program writer = w.finish();

    Assembler r;
    r.la(9, 0, std::int64_t(dataBase));
    r.lg(2, 9);
    r.halt();
    const Program reader = r.finish();

    sim::Machine m(smallConfig(2));
    m.memory().write(dataBase, 7, 8);
    m.setProgram(0, &writer);
    m.setProgram(1, &reader);

    // Drive the writer into its transaction, past the store.
    for (int i = 0; i < 8; ++i)
        m.cpu(0).step();
    ASSERT_TRUE(m.cpu(0).inTx());

    // The reader's fetch is stiff-armed for as long as the zombie
    // transaction lives: it must never observe the uncommitted 99.
    for (int i = 0; i < 50; ++i)
        m.cpu(1).step();
    EXPECT_FALSE(m.cpu(1).halted());
    EXPECT_GT(m.cpu(0).stats().value("xi.rejects_sent"), 0u);

    // A timer tick eventually ends the spinning transaction (this
    // is what bounds such transactions on the real machine); the
    // reader then sees the pre-transaction value.
    m.cpu(0).deliverExternalInterrupt();
    ASSERT_FALSE(m.cpu(0).inTx());
    int steps = 0;
    while (!m.cpu(1).halted() && steps++ < 200)
        m.cpu(1).step();
    ASSERT_TRUE(m.cpu(1).halted());
    EXPECT_EQ(m.cpu(1).gr(2), 7u); // pre-TX value, never 99
    EXPECT_EQ(m.cpu(0).stats().value("tx.abort.external-interrupt"), 1u);
}

TEST(TxBasic, WriterConflictAbortsReaderTx)
{
    // CPU0 transactionally reads a line and spins; CPU1 stores to
    // it non-transactionally (strong atomicity): CPU0's transaction
    // must abort with a fetch conflict.
    Assembler r;
    r.la(9, 0, std::int64_t(dataBase));
    r.tbegin(0xFF);
    r.jnz("done");
    r.lg(1, 9);
    r.label("spin");
    r.j("spin");
    r.label("done");
    r.halt();
    const Program reader = r.finish();

    Assembler w;
    w.la(9, 0, std::int64_t(dataBase));
    w.lhi(1, 55);
    w.stg(1, 9);
    w.halt();
    const Program writer = w.finish();

    sim::Machine m(smallConfig(2));
    m.setProgram(0, &reader);
    m.setProgram(1, &writer);

    for (int i = 0; i < 8; ++i)
        m.cpu(0).step();
    ASSERT_TRUE(m.cpu(0).inTx());

    int steps = 0;
    while (!m.cpu(1).halted() && steps++ < 200)
        m.cpu(1).step();
    ASSERT_TRUE(m.cpu(1).halted());
    EXPECT_FALSE(m.cpu(0).inTx());
    EXPECT_EQ(m.cpu(0).stats().value("tx.abort.fetch-conflict"), 1u);
    EXPECT_EQ(m.peekMem(dataBase, 8), 55u);
}

TEST(TxBasic, ReadSharingDoesNotConflict)
{
    // Two CPUs transactionally reading the same line both commit.
    Assembler as;
    as.la(9, 0, std::int64_t(dataBase));
    as.tbegin(0xFF);
    as.jnz("done");
    as.lg(1, 9);
    as.tend();
    as.label("done");
    as.halt();
    const Program p = as.finish();

    sim::Machine m(smallConfig(2));
    m.setProgram(0, &p);
    m.setProgram(1, &p);
    m.run();
    EXPECT_EQ(m.cpu(0).stats().value("tx.commits"), 1u);
    EXPECT_EQ(m.cpu(1).stats().value("tx.commits"), 1u);
    EXPECT_EQ(m.cpu(0).stats().value("tx.aborts"), 0u);
    EXPECT_EQ(m.cpu(1).stats().value("tx.aborts"), 0u);
}

TEST(TxBasic, ConflictTokenRecordedInTdb)
{
    constexpr Addr tdb_addr = dataBase + 0x4000;
    Assembler r;
    r.la(8, 0, std::int64_t(tdb_addr));
    r.la(9, 0, std::int64_t(dataBase));
    r.tbegin(0xFF, {.tdbBase = 8});
    r.jnz("done");
    r.lg(1, 9);
    r.label("spin");
    r.j("spin");
    r.label("done");
    r.halt();
    const Program reader = r.finish();

    Assembler w;
    w.la(9, 0, std::int64_t(dataBase));
    w.lhi(1, 5);
    w.stg(1, 9);
    w.halt();
    const Program writer = w.finish();

    sim::Machine m(smallConfig(2));
    m.setProgram(0, &reader);
    m.setProgram(1, &writer);
    for (int i = 0; i < 8; ++i)
        m.cpu(0).step();
    int steps = 0;
    while (!m.cpu(1).halted() && steps++ < 200)
        m.cpu(1).step();

    const tx::Tdb tdb = tx::Tdb::load(m.memory(), tdb_addr);
    EXPECT_TRUE(tdb.conflictTokenValid);
    EXPECT_EQ(tdb.conflictToken, lineAlign(dataBase));
    EXPECT_EQ(tdb.abortCode,
              std::uint64_t(tx::AbortReason::FetchConflict));
}

} // namespace
