#include "assembler.hh"

#include "common/log.hh"

namespace ztx::isa {

namespace {

void
checkReg(unsigned r, const char *what)
{
    if (r >= numGrs)
        ztx_fatal("register operand ", r, " out of range for ", what);
}

} // namespace

Assembler::Assembler(Addr base) : addr_(base)
{
}

Instruction &
Assembler::emit(Opcode op)
{
    if (finished_)
        ztx_panic("emit after finish()");
    Program::Slot slot;
    slot.inst.op = op;
    slot.addr = addr_;
    slot.length = opcodeInfo(op).length;
    prog_.slots_.push_back(slot);
    addr_ += slot.length;
    return prog_.slots_.back().inst;
}

void
Assembler::label(const std::string &name)
{
    if (prog_.labels_.count(name))
        ztx_fatal("duplicate label '", name, "'");
    prog_.labels_[name] = addr_;
}

void
Assembler::lhi(unsigned r1, std::int64_t imm)
{
    checkReg(r1, "LHI");
    auto &i = emit(Opcode::LHI);
    i.r1 = std::uint8_t(r1);
    i.imm = imm;
}

void
Assembler::lr(unsigned r1, unsigned r2)
{
    checkReg(r1, "LR");
    checkReg(r2, "LR");
    auto &i = emit(Opcode::LR);
    i.r1 = std::uint8_t(r1);
    i.r2 = std::uint8_t(r2);
}

void
Assembler::ltr(unsigned r1, unsigned r2)
{
    checkReg(r1, "LTR");
    checkReg(r2, "LTR");
    auto &i = emit(Opcode::LTR);
    i.r1 = std::uint8_t(r1);
    i.r2 = std::uint8_t(r2);
}

void
Assembler::la(unsigned r1, unsigned base, std::int64_t disp,
              unsigned index)
{
    checkReg(r1, "LA");
    checkReg(base, "LA");
    checkReg(index, "LA");
    auto &i = emit(Opcode::LA);
    i.r1 = std::uint8_t(r1);
    i.base = std::uint8_t(base);
    i.index = std::uint8_t(index);
    i.disp = disp;
}

#define ZTX_RR_OP(fn, OP) \
    void \
    Assembler::fn(unsigned r1, unsigned r2) \
    { \
        checkReg(r1, #OP); \
        checkReg(r2, #OP); \
        auto &i = emit(Opcode::OP); \
        i.r1 = std::uint8_t(r1); \
        i.r2 = std::uint8_t(r2); \
    }

ZTX_RR_OP(agr, AGR)
ZTX_RR_OP(sgr, SGR)
ZTX_RR_OP(msgr, MSGR)
ZTX_RR_OP(xgr, XGR)
ZTX_RR_OP(ngr, NGR)
ZTX_RR_OP(ogr, OGR)
ZTX_RR_OP(cgr, CGR)
ZTX_RR_OP(dsgr, DSGR)

#undef ZTX_RR_OP

void
Assembler::ahi(unsigned r1, std::int64_t imm)
{
    checkReg(r1, "AHI");
    auto &i = emit(Opcode::AHI);
    i.r1 = std::uint8_t(r1);
    i.imm = imm;
}

void
Assembler::sllg(unsigned r1, unsigned r2, unsigned shift)
{
    checkReg(r1, "SLLG");
    checkReg(r2, "SLLG");
    auto &i = emit(Opcode::SLLG);
    i.r1 = std::uint8_t(r1);
    i.r2 = std::uint8_t(r2);
    i.imm = shift;
}

void
Assembler::srlg(unsigned r1, unsigned r2, unsigned shift)
{
    checkReg(r1, "SRLG");
    checkReg(r2, "SRLG");
    auto &i = emit(Opcode::SRLG);
    i.r1 = std::uint8_t(r1);
    i.r2 = std::uint8_t(r2);
    i.imm = shift;
}

void
Assembler::cghi(unsigned r1, std::int64_t imm)
{
    checkReg(r1, "CGHI");
    auto &i = emit(Opcode::CGHI);
    i.r1 = std::uint8_t(r1);
    i.imm = imm;
}

#define ZTX_MEM_OP(fn, OP) \
    void \
    Assembler::fn(unsigned r1, unsigned base, std::int64_t disp, \
                  unsigned index) \
    { \
        checkReg(r1, #OP); \
        checkReg(base, #OP); \
        checkReg(index, #OP); \
        auto &i = emit(Opcode::OP); \
        i.r1 = std::uint8_t(r1); \
        i.base = std::uint8_t(base); \
        i.index = std::uint8_t(index); \
        i.disp = disp; \
    }

ZTX_MEM_OP(lg, LG)
ZTX_MEM_OP(lt, LT)
ZTX_MEM_OP(lgfo, LGFO)
ZTX_MEM_OP(stg, STG)
ZTX_MEM_OP(ntstg, NTSTG)

#undef ZTX_MEM_OP

void
Assembler::cs(unsigned r1, unsigned r3, unsigned base,
              std::int64_t disp)
{
    checkReg(r1, "CS");
    checkReg(r3, "CS");
    checkReg(base, "CS");
    auto &i = emit(Opcode::CS);
    i.r1 = std::uint8_t(r1);
    i.r3 = std::uint8_t(r3);
    i.base = std::uint8_t(base);
    i.disp = disp;
}

void
Assembler::j(const std::string &target)
{
    emit(Opcode::J);
    fixups_.push_back({prog_.slots_.size() - 1, target});
}

void
Assembler::brc(std::uint8_t mask, const std::string &target)
{
    auto &i = emit(Opcode::BRC);
    i.mask = mask;
    fixups_.push_back({prog_.slots_.size() - 1, target});
}

void
Assembler::brct(unsigned r1, const std::string &target)
{
    checkReg(r1, "BRCT");
    auto &i = emit(Opcode::BRCT);
    i.r1 = std::uint8_t(r1);
    fixups_.push_back({prog_.slots_.size() - 1, target});
}

void
Assembler::cij(unsigned r1, std::int64_t imm, std::uint8_t mask,
               const std::string &target)
{
    checkReg(r1, "CIJ");
    auto &i = emit(Opcode::CIJ);
    i.r1 = std::uint8_t(r1);
    i.imm = imm;
    i.mask = mask;
    fixups_.push_back({prog_.slots_.size() - 1, target});
}

void
Assembler::tbegin(std::uint8_t grsm, const TBeginOpts &opts)
{
    if (opts.pifc > 2)
        ztx_fatal("TBEGIN PIFC must be 0..2");
    checkReg(opts.tdbBase, "TBEGIN");
    auto &i = emit(Opcode::TBEGIN);
    i.grsm = grsm;
    i.base = std::uint8_t(opts.tdbBase);
    i.disp = opts.tdbDisp;
    i.allowArMod = opts.allowArMod;
    i.allowFprMod = opts.allowFprMod;
    i.pifc = opts.pifc;
}

void
Assembler::tbeginc(std::uint8_t grsm, bool allow_ar_mod)
{
    auto &i = emit(Opcode::TBEGINC);
    i.grsm = grsm;
    i.allowArMod = allow_ar_mod;
    // TBEGINC has no F or PIFC fields; the controls are zero, i.e.
    // FPR modification is blocked and no filtering occurs (§II.D).
    i.allowFprMod = false;
    i.pifc = 0;
}

void
Assembler::tend()
{
    emit(Opcode::TEND);
}

void
Assembler::tabort(unsigned base, std::int64_t disp)
{
    checkReg(base, "TABORT");
    auto &i = emit(Opcode::TABORT);
    i.base = std::uint8_t(base);
    i.disp = disp;
}

void
Assembler::etnd(unsigned r1)
{
    checkReg(r1, "ETND");
    emit(Opcode::ETND).r1 = std::uint8_t(r1);
}

void
Assembler::ppa(unsigned r1)
{
    checkReg(r1, "PPA");
    emit(Opcode::PPA).r1 = std::uint8_t(r1);
}

void
Assembler::adb(unsigned f1, unsigned f2)
{
    auto &i = emit(Opcode::ADB);
    i.r1 = std::uint8_t(f1);
    i.r2 = std::uint8_t(f2);
}

void
Assembler::ldgr(unsigned f1, unsigned r2)
{
    checkReg(r2, "LDGR");
    auto &i = emit(Opcode::LDGR);
    i.r1 = std::uint8_t(f1);
    i.r2 = std::uint8_t(r2);
}

void
Assembler::sar(unsigned a1, unsigned r2)
{
    checkReg(r2, "SAR");
    auto &i = emit(Opcode::SAR);
    i.r1 = std::uint8_t(a1);
    i.r2 = std::uint8_t(r2);
}

void
Assembler::ear(unsigned r1, unsigned a2)
{
    checkReg(r1, "EAR");
    auto &i = emit(Opcode::EAR);
    i.r1 = std::uint8_t(r1);
    i.r2 = std::uint8_t(a2);
}

void
Assembler::ap(unsigned r1, unsigned r2)
{
    checkReg(r1, "AP");
    checkReg(r2, "AP");
    auto &i = emit(Opcode::AP);
    i.r1 = std::uint8_t(r1);
    i.r2 = std::uint8_t(r2);
}

void
Assembler::lpswe()
{
    emit(Opcode::LPSWE);
}

void
Assembler::invalidOp()
{
    emit(Opcode::INVALID);
}

void
Assembler::stck(unsigned r1)
{
    checkReg(r1, "STCK");
    emit(Opcode::STCK).r1 = std::uint8_t(r1);
}

void
Assembler::rnd(unsigned r1, std::uint64_t bound)
{
    checkReg(r1, "RAND");
    if (bound == 0)
        ztx_fatal("RAND bound must be non-zero");
    auto &i = emit(Opcode::RAND);
    i.r1 = std::uint8_t(r1);
    i.imm = std::int64_t(bound);
}

void
Assembler::markb()
{
    emit(Opcode::MARKB);
}

void
Assembler::marke()
{
    emit(Opcode::MARKE);
}

void
Assembler::oplogb(std::uint32_t code, unsigned r1, unsigned r2)
{
    checkReg(r1, "OPLOGB");
    checkReg(r2, "OPLOGB");
    auto &i = emit(Opcode::OPLOGB);
    i.imm = std::int64_t(code);
    i.r1 = std::uint8_t(r1);
    i.r2 = std::uint8_t(r2);
}

void
Assembler::oploge(unsigned r1)
{
    checkReg(r1, "OPLOGE");
    emit(Opcode::OPLOGE).r1 = std::uint8_t(r1);
}

void
Assembler::oplogv(unsigned base, std::int64_t disp)
{
    checkReg(base, "OPLOGV");
    auto &i = emit(Opcode::OPLOGV);
    i.base = std::uint8_t(base);
    i.disp = disp;
}

void
Assembler::delay(unsigned r1)
{
    checkReg(r1, "DELAY");
    emit(Opcode::DELAY).r1 = std::uint8_t(r1);
}

void
Assembler::nop()
{
    emit(Opcode::NOP);
}

void
Assembler::halt()
{
    emit(Opcode::HALT);
}

Program
Assembler::finish()
{
    if (finished_)
        ztx_panic("finish() called twice");
    finished_ = true;
    for (const Fixup &fix : fixups_) {
        const auto it = prog_.labels_.find(fix.label);
        if (it == prog_.labels_.end())
            ztx_fatal("undefined label '", fix.label, "'");
        prog_.slots_[fix.slot].inst.target = it->second;
    }
    prog_.buildIndex();
    return std::move(prog_);
}

} // namespace ztx::isa
