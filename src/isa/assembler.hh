/**
 * @file
 * Fluent assembler for the zTX mini-ISA.
 *
 * Emits decoded instructions at byte-accurate addresses, resolves
 * labels (including forward references) when finish() is called, and
 * provides z-style condition-code branch helpers (jz/jnz/jo/...).
 */

#ifndef ZTX_ISA_ASSEMBLER_HH
#define ZTX_ISA_ASSEMBLER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/program.hh"
#include "isa/registers.hh"

namespace ztx::isa {

/** Builds a Program one instruction at a time. */
class Assembler
{
  public:
    /** @param base Byte address of the first instruction. */
    explicit Assembler(Addr base = 0x10'0000);

    /** Define a label at the current location. */
    void label(const std::string &name);

    /** Current emission address. */
    Addr here() const { return addr_; }

    /** @name Register / immediate arithmetic @{ */
    void lhi(unsigned r1, std::int64_t imm);
    void lr(unsigned r1, unsigned r2);
    void ltr(unsigned r1, unsigned r2);
    void la(unsigned r1, unsigned base, std::int64_t disp,
            unsigned index = 0);
    void ahi(unsigned r1, std::int64_t imm);
    void agr(unsigned r1, unsigned r2);
    void sgr(unsigned r1, unsigned r2);
    void msgr(unsigned r1, unsigned r2);
    void xgr(unsigned r1, unsigned r2);
    void ngr(unsigned r1, unsigned r2);
    void ogr(unsigned r1, unsigned r2);
    void sllg(unsigned r1, unsigned r2, unsigned shift);
    void srlg(unsigned r1, unsigned r2, unsigned shift);
    void cgr(unsigned r1, unsigned r2);
    void cghi(unsigned r1, std::int64_t imm);
    void dsgr(unsigned r1, unsigned r2);
    /** @} */

    /** @name Storage access @{ */
    void lg(unsigned r1, unsigned base, std::int64_t disp = 0,
            unsigned index = 0);
    void lt(unsigned r1, unsigned base, std::int64_t disp = 0,
            unsigned index = 0);
    /** Load with fetch-to-ownership (store intent). */
    void lgfo(unsigned r1, unsigned base, std::int64_t disp = 0,
              unsigned index = 0);
    void stg(unsigned r1, unsigned base, std::int64_t disp = 0,
             unsigned index = 0);
    void cs(unsigned r1, unsigned r3, unsigned base,
            std::int64_t disp = 0);
    void ntstg(unsigned r1, unsigned base, std::int64_t disp = 0,
               unsigned index = 0);
    /** @} */

    /** @name Branches @{ */
    void j(const std::string &target);
    void brc(std::uint8_t mask, const std::string &target);
    void jz(const std::string &target) { brc(maskZero, target); }
    void jnz(const std::string &target) { brc(maskNotZero, target); }
    void jl(const std::string &target) { brc(maskLow, target); }
    void jo(const std::string &target) { brc(maskOnes, target); }
    void brct(unsigned r1, const std::string &target);
    /** Compare r1 with imm; branch if mask selects the compare CC. */
    void cij(unsigned r1, std::int64_t imm, std::uint8_t mask,
             const std::string &target);
    /** CIJ not-low: branch if r1 >= imm (figure 1's CIJNL). */
    void
    cijnl(unsigned r1, std::int64_t imm, const std::string &target)
    {
        cij(r1, imm, maskCc0 | maskCc2, target);
    }
    /** @} */

    /** @name Transactional execution @{ */
    /** Optional TBEGIN operands beyond the GR save mask. */
    struct TBeginOpts
    {
        unsigned tdbBase = 0;      ///< base register for TDB; 0=none
        std::int64_t tdbDisp = 0;  ///< TDB displacement
        bool allowArMod = true;    ///< the 'A' control
        bool allowFprMod = true;   ///< the 'F' control
        std::uint8_t pifc = 0;     ///< filtering control, 0..2
    };
    void tbegin(std::uint8_t grsm, const TBeginOpts &opts);
    void tbegin(std::uint8_t grsm) { tbegin(grsm, TBeginOpts{}); }
    void tbeginc(std::uint8_t grsm, bool allow_ar_mod = true);
    void tend();
    void tabort(unsigned base, std::int64_t disp = 0);
    void etnd(unsigned r1);
    void ppa(unsigned r1);
    /** @} */

    /** @name Other register sets and exception generators @{ */
    void adb(unsigned f1, unsigned f2);
    void ldgr(unsigned f1, unsigned r2);
    void sar(unsigned a1, unsigned r2);
    void ear(unsigned r1, unsigned a2);
    void ap(unsigned r1, unsigned r2);
    void lpswe();
    void invalidOp();
    /** @} */

    /** @name Simulator pseudo-ops @{ */
    void stck(unsigned r1);
    void rnd(unsigned r1, std::uint64_t bound);
    void markb();
    void marke();
    /** Op-log invoke: operation @p code with arguments in r1/r2. */
    void oplogb(std::uint32_t code, unsigned r1, unsigned r2 = 0);
    /** Op-log response: observed result in r1. */
    void oploge(unsigned r1);
    /**
     * Op-log version record: in-TX, arm commit-footprint recording;
     * outside, record a write of the lock line at base + disp.
     */
    void oplogv(unsigned base, std::int64_t disp = 0);
    void delay(unsigned r1);
    void nop();
    void halt();
    /** @} */

    /**
     * Resolve labels and produce the program. The assembler is spent
     * afterwards.
     */
    Program finish();

  private:
    Instruction &emit(Opcode op);

    Program prog_;
    Addr addr_;
    struct Fixup
    {
        std::size_t slot;
        std::string label;
    };
    std::vector<Fixup> fixups_;
    bool finished_ = false;
};

} // namespace ztx::isa

#endif // ZTX_ISA_ASSEMBLER_HH
