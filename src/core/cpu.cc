#include "cpu.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/json.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "isa/disasm.hh"
#include "millicode/millicode.hh"
#include "tx/tdb.hh"

namespace ztx::core {

using isa::Opcode;

Cpu::Cpu(CpuId id, mem::Hierarchy &hier, mem::MainMemory &memory,
         debug::PageTable &pages, debug::OsModel &os, CpuEnv &env,
         const TmConfig &config, std::uint64_t seed)
    : id_(id), hier_(hier), memory_(memory), pages_(pages), os_(os),
      env_(env), cfg_(config), rng_(seed),
      storeCache_(config.storeCacheEntries,
                  "cpu" + std::to_string(id) + ".stc"),
      stats_("cpu" + std::to_string(id))
{
    hier_.setClient(id_, this);
    hier_.setLruExtensionEnabled(cfg_.lruExtensionEnabled);
    regionHist_ = &stats_.histogram("region.cycles", 32, 64.0);
}

Cpu::~Cpu() = default;

void
Cpu::setProgram(const isa::Program *program)
{
    program_ = program;
    nextSlot_ = nullptr;
    psw_ = isa::Psw{};
    psw_.ia = program->entry();
    halted_ = false;
}

Addr
Cpu::prefixTdbAddr() const
{
    // Per-CPU prefix area, placed far above any workload data.
    return 0xFFFF'0000'0000ULL + Addr(id_) * 0x1000;
}

bool
Cpu::effAllowArMod() const
{
    for (const auto &level : txLevels_)
        if (!level.allowArMod)
            return false;
    return true;
}

bool
Cpu::effAllowFprMod() const
{
    for (const auto &level : txLevels_)
        if (!level.allowFprMod)
            return false;
    return true;
}

std::uint8_t
Cpu::effPifc() const
{
    std::uint8_t pifc = 0;
    for (const auto &level : txLevels_)
        pifc = std::max(pifc, level.pifc);
    return pifc;
}

Addr
Cpu::effectiveAddr(const isa::Instruction &inst) const
{
    // z-style address generation: GR0 as base/index reads as zero.
    Addr addr = Addr(inst.disp);
    if (inst.base != 0)
        addr += regs_.gr[inst.base];
    if (inst.index != 0)
        addr += regs_.gr[inst.index];
    return addr;
}

Cycles
Cpu::consumePendingStall()
{
    const Cycles stall = pendingStall_;
    pendingStall_ = 0;
    return stall;
}

const std::uint8_t *
Cpu::lineData(Addr line) const
{
    LineRef &ref = lineRefs_[(line >> lineSizeLog2) % lineRefs_.size()];
    if (ref.line != line) {
        const std::uint8_t *data = memory_.lineData(line);
        if (!data)
            return nullptr;
        ref = {line, data};
    }
    return ref.data;
}

std::uint64_t
Cpu::readMerged(Addr addr, unsigned size) const
{
    std::uint8_t buf[8] = {};
    if (lineOffset(addr) + size <= lineSizeBytes) {
        if (const std::uint8_t *data = lineData(lineAlign(addr)))
            std::memcpy(buf, data + lineOffset(addr), size);
    } else {
        memory_.readBlock(addr, buf, size);
    }
    storeCache_.overlay(addr, size, buf);
    std::uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i)
        value = (value << 8) | buf[i];
    return value;
}

void
Cpu::drainStores()
{
    storeCache_.drainAll(memory_);
}

void
Cpu::abortTransaction(const AbortContext &ctx)
{
    millicode::MillicodeEngine::transactionAbort(*this, ctx);
}

bool
Cpu::accessLines(Addr addr, unsigned size, bool exclusive,
                 Cycles &cost)
{
    const Addr first = lineAlign(addr);
    const Addr last = lineAlign(addr + size - 1);
    for (Addr line = first; line <= last; line += lineSizeBytes) {
        const mem::AccessResult res = hier_.fetch(id_, line, exclusive);
        accessSlots_[line == first ? 0 : 1] = res.l1Slot;
        // Pipelining hides most of an L1 hit's use latency.
        cost += (!res.rejected && res.source == mem::DataSource::L1)
                    ? cfg_.l1HitCharge
                    : res.latency;
        if (res.rejected) {
            stalledOnReject_ = true;
            fetchRejected_.inc();
            return false;
        }
        if (abortedDuringStep_) {
            // Our own install path LRU'd part of the transactional
            // footprint and the transaction is gone.
            return false;
        }
        if (hier_.anyPoisoned() && hier_.poisonedCached(line))
            return handlePoisonedAccess(line, cost);
        if (inTx())
            hier_.markTxRead(id_, line, res.l1Slot);
    }

    // Speculative over-marking (§III.C): a wrong-path/prefetch load
    // pollutes the tracked read set with a neighbouring line. The
    // millicode escalation turns this off for constrained retries.
    if (inTx() && !speculationReduced_ &&
        cfg_.speculativeOvermarkProb > 0.0 &&
        rng_.nextBool(cfg_.speculativeOvermarkProb)) {
        const Addr spec_line = lineAlign(addr) + lineSizeBytes;
        const mem::AccessResult res = hier_.fetch(id_, spec_line, false);
        if (!res.rejected && !abortedDuringStep_ && inTx()) {
            hier_.markTxRead(id_, spec_line, res.l1Slot);
            txOvermarks_.inc();
        }
        if (abortedDuringStep_)
            return false;
    }

    stalledOnReject_ = false;
    return true;
}

bool
Cpu::accessData(Addr addr, unsigned size, bool exclusive, Cycles &cost)
{
    if (pages_.faultsRange(addr, size)) {
        programException(tx::InterruptCode::PageFault, addr, false,
                         cost);
        return false;
    }
    if (inConstrainedTx()) {
        if (const auto v = checker_.checkDataAccess(addr, size)) {
            constraintViolation(*v, cost);
            return false;
        }
    }
    return accessLines(addr, size, exclusive, cost);
}

bool
Cpu::storeData(Addr addr, std::uint64_t value, unsigned size,
               bool ntstg)
{
    // PER store event, delivered after completion by step().
    if (per_.storeRange.matches(addr, size) &&
        !(inTx() && per_.suppressInTx)) {
        perPending_ = true;
        perPendingAddr_ = addr;
    }
    std::uint8_t bytes[8];
    for (unsigned i = 0; i < size; ++i)
        bytes[i] = std::uint8_t(value >> (8 * (size - 1 - i)));
    if (!storeCache_.store(addr, bytes, size, ntstg && inTx(), memory_)) {
        abortTransaction({.reason = tx::AbortReason::StoreOverflow});
        return false;
    }
    if (inTx()) {
        const Addr first = lineAlign(addr);
        const Addr last = lineAlign(addr + size - 1);
        for (Addr line = first; line <= last; line += lineSizeBytes) {
            // In a one-way L1 row the access's own later fills (its
            // second line, an over-mark) can displace the line.
            if (!hier_.markTxDirty(id_, line,
                                   accessSlots_[line == first ? 0 : 1])) {
                abortTransaction(
                    {.reason = tx::AbortReason::CacheStoreRelated});
                return false;
            }
        }
    }
    return true;
}

std::optional<std::uint64_t>
Cpu::memLoad(Addr addr, unsigned size, Cycles &cost, bool exclusive)
{
    if (!accessData(addr, size, exclusive, cost))
        return std::nullopt;
    return readMerged(addr, size);
}

bool
Cpu::memStore(Addr addr, std::uint64_t value, unsigned size,
              bool ntstg, Cycles &cost)
{
    return accessData(addr, size, true, cost) &&
           storeData(addr, value, size, ntstg);
}

void
Cpu::osInterrupt(tx::InterruptCode code, Addr addr, bool from_tx,
                 bool from_constrained, Cycles &cost)
{
    cost += cfg_.osInterruptCost;
    stats_.counter("os_interrupts").inc();
    const debug::OsAction action = os_.programInterrupt(
        {id_, code, addr, from_tx, from_constrained});
    if (action == debug::OsAction::Terminate) {
        halted_ = true;
        stats_.counter("terminated").inc();
    }
}

void
Cpu::programException(tx::InterruptCode code, Addr addr,
                      bool instruction_fetch, Cycles &cost)
{
    stats_.counter("program_exceptions").inc();
    if (inTx()) {
        const bool filtered =
            !constrained_ &&
            tx::isFiltered(code, effPifc(), instruction_fetch);
        const bool was_constrained = constrained_;
        AbortContext actx;
        actx.reason = filtered
                          ? tx::AbortReason::FilteredProgramInterrupt
                          : tx::AbortReason::ProgramInterrupt;
        actx.interruptCode = code;
        actx.interruptAddr = addr;
        actx.filtered = filtered;
        abortTransaction(actx);
        if (!filtered)
            osInterrupt(code, addr, true, was_constrained, cost);
    } else {
        osInterrupt(code, addr, false, false, cost);
    }
}

void
Cpu::constraintViolation(tx::ConstraintViolationKind kind,
                         Cycles &cost)
{
    stats_.counter(std::string("constraint_violation.") +
                   tx::constraintViolationName(kind)).inc();
    // Non-filterable program interruption after the abort (§II.D).
    AbortContext actx;
    actx.reason = tx::AbortReason::ProgramInterrupt;
    actx.interruptCode = tx::InterruptCode::ConstraintViolation;
    actx.interruptAddr = psw_.ia;
    abortTransaction(actx);
    osInterrupt(tx::InterruptCode::ConstraintViolation, psw_.ia, true,
                true, cost);
}

bool
Cpu::handlePoisonedAccess(Addr line, Cycles &cost)
{
    stats_.counter("machine_checks").inc();
    const bool was_tx = inTx();
    if (was_tx) {
        // Architectural guarantee: data from a poisoned line never
        // commits. Transient (CC2) — the scrub below removes the
        // poison, so a retry is promising (and the constrained-TX
        // eventual-success guarantee holds).
        AbortContext actx;
        actx.reason = tx::AbortReason::DataPoisoned;
        actx.conflictAddr = line;
        actx.conflictValid = true;
        abortTransaction(actx);
    }
    // Machine-check recovery, charged like an OS round trip: attempt
    // the refresh-from-memory scrub, then let the OS decide.
    cost += cfg_.osInterruptCost;
    const bool clean = hier_.scrubLine(line);
    const debug::OsAction action =
        os_.machineCheck({id_, line, clean, was_tx});
    if (action == debug::OsAction::Restart) {
        hier_.reloadLine(line);
        restartWorkload();
    }
    return false;
}

void
Cpu::restartWorkload()
{
    // The GRs survive: workload runners pre-seed arena/base registers
    // before the first step, and a restarted item reuses them.
    drainStores();
    psw_ = isa::Psw{};
    psw_.ia = program_->entry();
    regionOpen_ = false;
    stalledOnReject_ = false;
    rejectsSinceCompletion_ = 0;
    dispatchCredit_ = 0;
    perPending_ = false;
    stats_.counter("workload_restarts").inc();
    ++progressEvents_;
    env_.noteProgress(id_);
}

void
Cpu::deliverExternalInterrupt()
{
    stats_.counter("external_interrupts").inc();
    if (inTx()) {
        abortTransaction({.reason =
                              tx::AbortReason::ExternalInterrupt});
    }
    // OS round trip (timer tick service).
    addStall(cfg_.osInterruptCost);
}

void
Cpu::injectSpuriousAbort()
{
    if (!inTx())
        return;
    stats_.counter("inject.spurious_aborts").inc();
    // Transient (CC2) like the random environmental aborts zEC12
    // millicode tolerates; DiagnosticAbort matches the architected
    // "forced abort with no architectural cause" bucket.
    abortTransaction({.reason = tx::AbortReason::DiagnosticAbort});
}

Json
Cpu::diagnosticJson() const
{
    Json d = Json::object();
    d["id"] = id_;
    d["halted"] = halted_;
    d["psw_ia"] = std::uint64_t(psw_.ia);
    d["psw_cc"] = unsigned(psw_.cc);
    d["in_tx"] = inTx();
    d["nesting_depth"] = txDepth_;
    d["constrained"] = constrained_;
    d["last_abort_code"] = lastAbortCode_;
    d["tdb_addr"] = tdbValid_ ? std::uint64_t(tdbAddr_) : 0;

    // Escalation-ladder position (paper §III.E).
    Json ladder = Json::object();
    ladder["constrained_abort_count"] = constrainedAbortCount_;
    ladder["speculation_reduced"] = speculationReduced_;
    ladder["solo_held"] = soloHeld_;
    d["ladder"] = std::move(ladder);

    d["progress_events"] = progressEvents_;
    Json aborts = Json::object();
    for (const auto &[name, counter] : stats_.counters()) {
        if (name.rfind("tx.abort.", 0) == 0)
            aborts[name.substr(9)] = counter.value();
    }
    d["aborts_by_reason"] = std::move(aborts);
    d["commits"] = stats_.value("tx.commits");
    d["rejects_sent"] = stats_.value("xi.rejects_sent");
    // The ADT operation in flight when the machine stopped, if an
    // op log is attached: the watchdog's per-CPU pending window.
    if (opRecorder_)
        d["pending_op"] = opRecorder_->pendingOpJson(id_);
    return d;
}

std::uint64_t
Cpu::spinFingerprint() const
{
    // Rotations keep equal values in different registers apart; the
    // terms are independent, so this is a few cycles per call.
    std::uint64_t h = psw_.ia ^ (std::uint64_t(psw_.cc) << 56) ^
                      (std::uint64_t(dispatchCredit_) << 60);
    for (unsigned r = 0; r < isa::numGrs; ++r)
        h ^= std::rotl(regs_.gr[r], int(4 * r + 1));
    return h;
}

void
Cpu::restoreSpinState(const SpinState &state)
{
    regs_.gr = state.gr;
    psw_.ia = state.ia;
    psw_.cc = state.cc;
    dispatchCredit_ = state.dispatchCredit;
}

bool
Cpu::spinQuiet() const
{
    return !halted_ && !inTx() && pendingStall_ == 0 && !perPending_ &&
           !per_.anyEnabled() && !stalledOnReject_ &&
           rejectsSinceCompletion_ == 0;
}

SpinStep
Cpu::spinStep(Addr &line) const
{
    const isa::Program::Slot *slot = program_->fetch(psw_.ia);
    if (!slot || pages_.faults(slot->addr))
        return SpinStep::None;
    const isa::Instruction &inst = slot->inst;
    switch (inst.op) {
      case Opcode::LHI:
      case Opcode::LR:
      case Opcode::LTR:
      case Opcode::LA:
      case Opcode::AHI:
      case Opcode::AGR:
      case Opcode::SGR:
      case Opcode::MSGR:
      case Opcode::XGR:
      case Opcode::NGR:
      case Opcode::OGR:
      case Opcode::SLLG:
      case Opcode::SRLG:
      case Opcode::CGR:
      case Opcode::CGHI:
      case Opcode::J:
      case Opcode::BRC:
      case Opcode::BRCT:
      case Opcode::CIJ:
      case Opcode::DELAY:
      case Opcode::NOP:
        return SpinStep::Plain;
      case Opcode::LG:
      case Opcode::LT: {
        const Addr addr = effectiveAddr(inst);
        if (lineAlign(addr) != lineAlign(addr + 7) ||
            pages_.faultsRange(addr, 8) || hier_.anyPoisoned())
            return SpinStep::None;
        line = lineAlign(addr);
        return SpinStep::Load;
      }
      default:
        return SpinStep::None;
    }
}

bool
Cpu::isBranchAt(Addr ia) const
{
    const isa::Program::Slot *slot = program_->fetch(ia);
    return slot && isa::opcodeInfo(slot->inst.op).isBranch;
}

mem::XiResponse
Cpu::incomingXi(const mem::XiContext &ctx)
{
    env_.noteXi(id_);
    xiReceived_.inc();
    if (ctx.poisoned)
        xiPoisonedSeen_.inc();
    const bool tx_write =
        inTx() && (ctx.txDirty || storeCache_.hasAnyLine(ctx.line));
    const bool tx_read = inTx() && (ctx.txRead || ctx.lruExtHit);

    switch (ctx.kind) {
      case mem::XiKind::Demote:
      case mem::XiKind::Exclusive: {
        // A demote only takes our write permission; tx-read data is
        // still protected. An exclusive XI conflicts with both sets.
        const bool conflict =
            tx_write ||
            (ctx.kind == mem::XiKind::Exclusive && tx_read);
        if (conflict) {
            // Hang avoidance ("the core is not completing further
            // instructions while continuously rejecting XIs"): only
            // rejects issued while this CPU is itself stalled on a
            // rejected access count toward the abort threshold —
            // that is the deadlock-cycle signature. An owner that
            // is merely waiting on a long fetch stiff-arms freely,
            // which the paper notes is very efficient under high
            // contention.
            const unsigned threshold =
                cfg_.xiRejectAbortThreshold + (id_ % 7);
            const bool over_threshold =
                stalledOnReject_ &&
                ++rejectsSinceCompletion_ > threshold;
            // Broadcast-stop: while another CPU holds solo mode,
            // all conflicting work yields to it (paper §III.E).
            const bool yield_to_solo =
                ctx.requester != invalidCpu &&
                ctx.requester == env_.soloHolder();
            if (cfg_.stiffArmEnabled && !over_threshold &&
                !yield_to_solo) {
                xiRejectsSent_.inc();
                ztx_trace(trace::Category::Xi, "cpu", id_,
                          " rejects ", mem::xiKindName(ctx.kind),
                          " XI line=0x", std::hex, ctx.line);
                return mem::XiResponse::Reject;
            }
            // Hang avoidance (or stiff-arming disabled): abort and
            // let the requester through.
            AbortContext actx;
            actx.reason = tx_write
                              ? tx::AbortReason::StoreConflict
                              : tx::AbortReason::FetchConflict;
            actx.conflictAddr = ctx.line;
            actx.conflictValid = true;
            abortTransaction(actx);
        }
        storeCache_.drainLine(ctx.line, memory_);
        return mem::XiResponse::Accept;
      }
      case mem::XiKind::ReadOnly: {
        if (tx_read) {
            AbortContext actx;
            actx.reason = tx::AbortReason::FetchConflict;
            actx.conflictAddr = ctx.line;
            actx.conflictValid = true;
            abortTransaction(actx);
        }
        return mem::XiResponse::Accept;
      }
      case mem::XiKind::Lru: {
        if (tx_write) {
            abortTransaction({.reason =
                                  tx::AbortReason::CacheStoreRelated});
        } else if (tx_read) {
            abortTransaction({.reason =
                                  tx::AbortReason::CacheFetchRelated});
        }
        storeCache_.drainLine(ctx.line, memory_);
        return mem::XiResponse::Accept;
      }
    }
    return mem::XiResponse::Accept;
}

void
Cpu::l1Evicted(Addr line, std::uint8_t flags)
{
    (void)line;
    if (flags & mem::line_flag::txRead)
        txReadEvicted_.inc();
}

Cpu::ExecResult
Cpu::beginTransaction(const isa::Program::Slot &slot, bool constrained)
{
    const isa::Instruction &inst = slot.inst;
    ExecResult res;
    res.cost = cfg_.tbeginBaseCost +
               Cycles(std::popcount(inst.grsm)) *
                   cfg_.tbeginPerPairCost;

    if (txDepth_ >= cfg_.maxNestingDepth) {
        abortTransaction({.reason =
                              tx::AbortReason::NestingDepthExceeded});
        res.completed = false;
        return res;
    }

    if (!inTx()) {
        // Outermost begin. TBEGIN's TDB operand gets an
        // accessibility test up front (paper §III.B).
        if (!constrained && inst.base != 0) {
            const Addr tdb_addr = effectiveAddr(inst);
            if (pages_.faultsRange(tdb_addr, tx::tdbSizeBytes)) {
                programException(tx::InterruptCode::PageFault,
                                 tdb_addr, false, res.cost);
                res.completed = false;
                return res;
            }
            tdbValid_ = true;
            tdbAddr_ = tdb_addr;
        } else {
            tdbValid_ = false;
        }
        backupGrs_ = regs_.gr;
        savedGrsm_ = inst.grsm;
        tbeginAddr_ = slot.addr;
        tbeginLength_ = slot.length;
        hier_.clearTxMarks(id_);
        versionArmed_ = false;
        storeCache_.beginTransaction(memory_);
        constrained_ = constrained;
        if (constrained)
            checker_.begin(slot.addr);
        txLevels_.clear();
        txBegins_.inc();
        if (constrained)
            stats_.counter("tx.begins_constrained").inc();
    }
    // TBEGINC inside a non-constrained transaction opens a regular
    // non-constrained nesting level (paper §II.D); its implicit
    // controls (F=0, PIFC=0) still join the nest.
    txLevels_.push_back(
        {inst.allowArMod, inst.allowFprMod, inst.pifc});
    ++txDepth_;
    psw_.cc = 0;
    psw_.ia = slot.addr + slot.length;
    ztx_trace(trace::Category::Tx, "cpu", id_, " ",
              constrained ? "TBEGINC" : "TBEGIN", " depth=",
              txDepth_, " ia=0x", std::hex, slot.addr);
    return res;
}

Cpu::ExecResult
Cpu::endTransaction()
{
    ExecResult res;
    res.cost = cfg_.tendCost;

    // Forced diagnostic abort "at latest before the outermost TEND"
    // (TDC mode Always; constrained TXs are exempt, §II.E.3).
    if (!constrained_ && tdc_.mode == debug::TdcMode::Always) {
        abortTransaction({.reason = tx::AbortReason::DiagnosticAbort});
        res.completed = false;
        return res;
    }

    // RAS guarantee: no silently committed corrupt data. A line
    // poisoned *after* its fetch (mid-transaction injection) is
    // caught here, at the last point before stores become visible.
    if (hier_.anyPoisoned()) {
        for (const Addr line : hier_.txFootprintLines(id_)) {
            if (hier_.poisonedCached(line)) {
                handlePoisonedAccess(line, res.cost);
                res.completed = false;
                return res;
            }
        }
    }

    // Version-order recording (OPLOGV armed): report the committed
    // region's read/write line footprint while the TX marks are
    // still live. Host-side work only — zero simulated cost.
    if (versionArmed_ && opRecorder_) {
        std::vector<FootprintAccess> acc;
        for (const Addr line : hier_.txFootprintLines(id_))
            acc.push_back({line, hier_.txDirty(id_, line)});
        // Canonical order: the footprint walk follows cache-array
        // layout, which is not a stable public contract.
        std::sort(acc.begin(), acc.end(),
                  [](const FootprintAccess &a,
                     const FootprintAccess &b) {
                      return a.line < b.line;
                  });
        opRecorder_->opCommit(id_, env_.now(), acc.data(),
                              acc.size());
    }
    versionArmed_ = false;

    storeCache_.commitTransaction(memory_);
    hier_.clearTxMarks(id_);
    txDepth_ = 0;
    txLevels_.clear();
    const bool was_constrained = constrained_;
    if (constrained_) {
        checker_.end();
        constrained_ = false;
        millicode::MillicodeEngine::constrainedSuccess(*this);
    }
    txCommits_.inc();
    if (was_constrained)
        stats_.counter("tx.commits_constrained").inc();
    ++progressEvents_;
    env_.noteProgress(id_);
    psw_.cc = 0;
    ztx_trace(trace::Category::Tx, "cpu", id_, " TEND commit",
              was_constrained ? " (constrained)" : "");
    return res;
}

Cpu::ExecResult
Cpu::execute(const isa::Program::Slot &slot)
{
    const isa::Instruction &inst = slot.inst;
    auto &gr = regs_.gr;
    ExecResult res;
    bool advance = true;

    switch (inst.op) {
      case Opcode::LHI:
        gr[inst.r1] = std::uint64_t(inst.imm);
        break;
      case Opcode::LR:
        gr[inst.r1] = gr[inst.r2];
        break;
      case Opcode::LTR:
        gr[inst.r1] = gr[inst.r2];
        psw_.cc = isa::ccOfSigned(std::int64_t(gr[inst.r1]));
        break;
      case Opcode::LA:
        gr[inst.r1] = effectiveAddr(inst);
        break;
      case Opcode::AHI:
        gr[inst.r1] += std::uint64_t(inst.imm);
        psw_.cc = isa::ccOfSigned(std::int64_t(gr[inst.r1]));
        break;
      case Opcode::AGR:
        gr[inst.r1] += gr[inst.r2];
        psw_.cc = isa::ccOfSigned(std::int64_t(gr[inst.r1]));
        break;
      case Opcode::SGR:
        gr[inst.r1] -= gr[inst.r2];
        psw_.cc = isa::ccOfSigned(std::int64_t(gr[inst.r1]));
        break;
      case Opcode::MSGR:
        gr[inst.r1] *= gr[inst.r2];
        break;
      case Opcode::XGR:
        gr[inst.r1] ^= gr[inst.r2];
        psw_.cc = gr[inst.r1] == 0 ? 0 : 1;
        break;
      case Opcode::NGR:
        gr[inst.r1] &= gr[inst.r2];
        psw_.cc = gr[inst.r1] == 0 ? 0 : 1;
        break;
      case Opcode::OGR:
        gr[inst.r1] |= gr[inst.r2];
        psw_.cc = gr[inst.r1] == 0 ? 0 : 1;
        break;
      case Opcode::SLLG:
        gr[inst.r1] = gr[inst.r2] << (inst.imm & 63);
        break;
      case Opcode::SRLG:
        gr[inst.r1] = gr[inst.r2] >> (inst.imm & 63);
        break;
      case Opcode::CGR:
        psw_.cc = isa::ccOfCompare(std::int64_t(gr[inst.r1]),
                                   std::int64_t(gr[inst.r2]));
        break;
      case Opcode::CGHI:
        psw_.cc = isa::ccOfCompare(std::int64_t(gr[inst.r1]),
                                   inst.imm);
        break;
      case Opcode::DSGR:
        if (gr[inst.r2] == 0) {
            programException(tx::InterruptCode::FixedPointDivide,
                             slot.addr, false, res.cost);
            res.completed = false;
            advance = false;
        } else {
            gr[inst.r1] = std::uint64_t(std::int64_t(gr[inst.r1]) /
                                        std::int64_t(gr[inst.r2]));
        }
        break;

      case Opcode::LG:
      case Opcode::LT:
      case Opcode::LGFO: {
        const Addr addr = effectiveAddr(inst);
        const auto value =
            memLoad(addr, 8, res.cost, inst.op == Opcode::LGFO);
        if (!value) {
            res.completed = false;
            advance = false;
            break;
        }
        gr[inst.r1] = *value;
        if (inst.op == Opcode::LT)
            psw_.cc = isa::ccOfSigned(std::int64_t(*value));
        break;
      }
      case Opcode::STG:
      case Opcode::NTSTG: {
        const Addr addr = effectiveAddr(inst);
        const bool ntstg = inst.op == Opcode::NTSTG;
        if (ntstg && addr % 8 != 0)
            ztx_fatal("NTSTG operand must be doubleword aligned");
        if (!memStore(addr, gr[inst.r1], 8, ntstg, res.cost)) {
            res.completed = false;
            advance = false;
        }
        break;
      }
      case Opcode::CS: {
        const Addr addr = effectiveAddr(inst);
        if (addr % 8 != 0)
            ztx_fatal("CS operand must be doubleword aligned");
        const auto current = memLoad(addr, 8, res.cost, true);
        if (!current) {
            res.completed = false;
            advance = false;
            break;
        }
        res.cost += cfg_.casExtraCost;
        if (*current != gr[inst.r1]) {
            gr[inst.r1] = *current;
            psw_.cc = 1;
        } else if (storeData(addr, gr[inst.r3], 8, false)) {
            psw_.cc = 0;
        } else {
            res.completed = false;
            advance = false;
        }
        break;
      }

      case Opcode::J:
        psw_.ia = inst.target;
        advance = false;
        break;
      case Opcode::BRC:
        if (isa::ccSelected(inst.mask, psw_.cc)) {
            psw_.ia = inst.target;
            advance = false;
        }
        break;
      case Opcode::BRCT:
        gr[inst.r1] -= 1;
        if (gr[inst.r1] != 0) {
            psw_.ia = inst.target;
            advance = false;
        }
        break;
      case Opcode::CIJ:
        if (isa::ccSelected(inst.mask,
                            isa::ccOfCompare(std::int64_t(gr[inst.r1]),
                                             inst.imm))) {
            psw_.ia = inst.target;
            advance = false;
        }
        break;

      case Opcode::TBEGIN:
        return beginTransaction(slot, false);
      case Opcode::TBEGINC:
        return beginTransaction(slot, true);
      case Opcode::TEND:
        if (!inTx()) {
            psw_.cc = 2;
            break;
        }
        if (txDepth_ > 1) {
            --txDepth_;
            txLevels_.pop_back();
            psw_.cc = 0;
            break;
        }
        res = endTransaction();
        if (res.completed) {
            advance = true;
            // PER TEND event (paper §II.E.2): fires on successful
            // completion of an outermost TEND.
            if (per_.tendEvent) {
                perPending_ = true;
                perPendingAddr_ = slot.addr;
            }
        } else {
            advance = false;
        }
        break;
      case Opcode::TABORT: {
        if (!inTx()) {
            // Special-operation condition outside a transaction.
            programException(tx::InterruptCode::Operation, slot.addr,
                             false, res.cost);
            res.completed = false;
            advance = false;
            break;
        }
        const std::uint64_t code = effectiveAddr(inst);
        AbortContext actx;
        actx.reason = tx::AbortReason::TAbortBase;
        actx.code = code < 256 ? 256 : code;
        abortTransaction(actx);
        res.completed = false;
        advance = false;
        break;
      }
      case Opcode::ETND:
        gr[inst.r1] = txDepth_;
        break;
      case Opcode::PPA:
        res.cost += millicode::MillicodeEngine::ppaDelay(
            *this, gr[inst.r1]);
        break;

      case Opcode::ADB: {
        const double a = std::bit_cast<double>(regs_.fpr[inst.r1]);
        const double b = std::bit_cast<double>(regs_.fpr[inst.r2]);
        regs_.fpr[inst.r1] = std::bit_cast<std::uint64_t>(a + b);
        break;
      }
      case Opcode::LDGR:
        regs_.fpr[inst.r1] = gr[inst.r2];
        break;
      case Opcode::SAR:
        regs_.ar[inst.r1] = std::uint32_t(gr[inst.r2]);
        break;
      case Opcode::EAR:
        gr[inst.r1] = regs_.ar[inst.r2];
        break;
      case Opcode::AP:
        // Packed-decimal stand-in: a low nibble above 9 is an
        // invalid digit -> data exception (group 4, filterable).
        if ((gr[inst.r1] & 0xF) > 9 || (gr[inst.r2] & 0xF) > 9) {
            programException(tx::InterruptCode::DecimalData,
                             slot.addr, false, res.cost);
            res.completed = false;
            advance = false;
        } else {
            gr[inst.r1] += gr[inst.r2];
        }
        break;
      case Opcode::LPSWE:
        // Privileged control operation; a no-op at this level of
        // modelling (restricted-in-TX handling happens in step()).
        stats_.counter("lpswe").inc();
        break;
      case Opcode::INVALID:
        programException(tx::InterruptCode::Operation, slot.addr,
                         false, res.cost);
        res.completed = false;
        advance = false;
        break;

      case Opcode::STCK:
        gr[inst.r1] = env_.now();
        break;
      case Opcode::RAND:
        gr[inst.r1] = rng_.nextBounded(std::uint64_t(inst.imm));
        break;
      case Opcode::MARKB:
        regionOpen_ = true;
        regionStart_ = env_.now();
        res.cost = 0;
        break;
      case Opcode::MARKE:
        if (regionOpen_) {
            const double cycles =
                double(env_.now() - regionStart_);
            regionHist_->sample(cycles);
            regionOpen_ = false;
            ++progressEvents_;
            env_.noteProgress(id_);
        }
        res.cost = 0;
        break;
      case Opcode::OPLOGB:
        if (opRecorder_) {
            opRecorder_->opInvoke(id_, env_.now(),
                                  std::uint32_t(inst.imm),
                                  gr[inst.r1], gr[inst.r2]);
        }
        res.cost = 0;
        break;
      case Opcode::OPLOGE:
        if (opRecorder_)
            opRecorder_->opResponse(id_, env_.now(), gr[inst.r1]);
        res.cost = 0;
        break;
      case Opcode::OPLOGV:
        if (opRecorder_) {
            if (inTx()) {
                versionArmed_ = true;
            } else {
                // Lock path: the region's "commit" is the lock-line
                // write — record it so lock regions and elided
                // transactions order in the same version chain.
                const FootprintAccess acc{
                    lineAlign(effectiveAddr(inst)), true};
                opRecorder_->opCommit(id_, env_.now(), &acc, 1);
            }
        }
        res.cost = 0;
        break;
      case Opcode::DELAY:
        res.cost = Cycles(std::min<std::uint64_t>(gr[inst.r1], 4096));
        break;
      case Opcode::NOP:
        break;
      case Opcode::HALT:
        drainStores();
        halted_ = true;
        ++progressEvents_;
        env_.noteProgress(id_);
        advance = false;
        break;
    }

    // PER branch event: a successful branch *into* the watched
    // range (z watch-point on branch targets).
    if (!advance && res.completed && !abortedDuringStep_ &&
        isa::opcodeInfo(inst.op).isBranch &&
        per_.branchRange.matches(psw_.ia) &&
        !(inTx() && per_.suppressInTx)) {
        perPending_ = true;
        perPendingAddr_ = psw_.ia;
    }

    if (advance && res.completed && !abortedDuringStep_)
        psw_.ia = slot.addr + slot.length;
    return res;
}

Cycles
Cpu::step()
{
    if (halted_)
        return 0;
    abortedDuringStep_ = false;
    Cycles cost = 0;

    const isa::Program::Slot *slot =
        nextSlot_ && nextSlot_->addr == psw_.ia
            ? nextSlot_
            : program_->fetch(psw_.ia);
    if (!slot) {
        programException(tx::InterruptCode::Operation, psw_.ia, true,
                         cost);
        return std::max<Cycles>(cost, 1);
    }
    nextSlot_ = program_->next(slot);

    // Instruction-fetch page fault: never filtered (§II.C).
    if (pages_.faults(slot->addr)) {
        programException(tx::InterruptCode::PageFault, slot->addr,
                         true, cost);
        return std::max<Cycles>(cost, 1);
    }

    const isa::Instruction &inst = slot->inst;
    const isa::OpcodeInfo &info = isa::opcodeInfo(inst.op);

    // PER instruction-fetch event (after-the-fact, like z PER).
    bool per_ifetch = false;
    if (per_.ifetchRange.matches(slot->addr, slot->length) &&
        !(inTx() && per_.suppressInTx)) {
        per_ifetch = true;
    }

    if (inTx()) {
        if (info.restrictedInTx) {
            abortTransaction(
                {.reason = tx::AbortReason::RestrictedInstruction});
            return std::max<Cycles>(cost, 1);
        }
        if (constrained_) {
            if (const auto v =
                    checker_.checkInstruction(inst, slot->addr)) {
                constraintViolation(*v, cost);
                return std::max<Cycles>(cost, 1);
            }
        }
        if ((info.modifiesAr && !effAllowArMod()) ||
            (info.modifiesFpr && !effAllowFprMod())) {
            abortTransaction(
                {.reason = tx::AbortReason::RestrictedInstruction});
            return std::max<Cycles>(cost, 1);
        }
        // Transaction Diagnostic Control random aborts.
        if (tdc_.mode != debug::TdcMode::Off &&
            inst.op != Opcode::TEND &&
            rng_.nextBool(tdc_.abortProbability)) {
            abortTransaction(
                {.reason = tx::AbortReason::DiagnosticAbort});
            return std::max<Cycles>(cost, 1);
        }
    }

    ztx_trace(trace::Category::Exec, "cpu", id_, " 0x", std::hex,
              slot->addr, std::dec, ": ",
              isa::disassemble(slot->inst));

    const ExecResult res = execute(*slot);
    cost += res.cost;

    if (res.completed && !abortedDuringStep_) {
        rejectsSinceCompletion_ = 0;
        instructions_.inc();
        // Superscalar approximation: up to dispatchWidth simple
        // single-cycle instructions complete per cycle.
        if (res.cost == 1 && cost >= 1) {
            if (dispatchCredit_ > 0) {
                --dispatchCredit_;
                cost -= 1;
            } else if (cfg_.dispatchWidth > 1) {
                dispatchCredit_ = cfg_.dispatchWidth - 1;
            }
        }
        // Deliver pending PER events (store/TEND) and the ifetch
        // event after completion.
        if (perPending_ || per_ifetch) {
            const Addr per_addr =
                perPending_ ? perPendingAddr_ : slot->addr;
            perPending_ = false;
            if (inTx()) {
                const bool was_constrained = constrained_;
                AbortContext actx;
                actx.reason = tx::AbortReason::ProgramInterrupt;
                actx.interruptCode = tx::InterruptCode::PerEvent;
                actx.interruptAddr = per_addr;
                abortTransaction(actx);
                osInterrupt(tx::InterruptCode::PerEvent, per_addr,
                            true, was_constrained, cost);
                if (was_constrained &&
                    os_.autoSuppressPerForConstrained) {
                    per_.suppressInTx = true;
                }
            } else {
                osInterrupt(tx::InterruptCode::PerEvent, per_addr,
                            false, false, cost);
            }
        }
    } else {
        perPending_ = false;
    }
    return cost;
}

} // namespace ztx::core
