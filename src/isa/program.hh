/**
 * @file
 * An assembled program: instructions located at byte-accurate
 * addresses, fetched by address by the CPU interpreter.
 *
 * Programs are static once assembled, so fetch runs against a dense
 * index with one entry per halfword of the program's byte range
 * (instruction lengths are 2, 4 or 6 bytes and addresses rise
 * monotonically): an O(1) array load instead of a hash lookup.
 */

#ifndef ZTX_ISA_PROGRAM_HH
#define ZTX_ISA_PROGRAM_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"

namespace ztx::isa {

/** Immutable instruction stream with address-based fetch. */
class Program
{
  public:
    /** An instruction placed at its assembled address. */
    struct Slot
    {
        Instruction inst;
        Addr addr;
        std::uint8_t length;
    };

    Program() = default;

    /**
     * Fetch the instruction at @p addr.
     * @return The slot, or nullptr when @p addr is not the address
     *         of any assembled instruction.
     */
    const Slot *fetch(Addr addr) const;

    /** Address of the first instruction. */
    Addr entry() const;

    /** Address of a named label (fatal if unknown). */
    Addr labelAddr(const std::string &name) const;

    /** Number of instructions. */
    std::size_t size() const { return slots_.size(); }

    /** All slots, in address order (for listings and tests). */
    const std::vector<Slot> &slots() const { return slots_; }

  private:
    friend class Assembler;

    /** slotAt_ marker for a halfword inside an instruction. */
    static constexpr std::uint32_t noSlot = ~std::uint32_t(0);

    /** Build slotAt_ from slots_ (Assembler::finish()). */
    void buildIndex();

    std::vector<Slot> slots_;
    /** Slot index per halfword from slots_.front().addr; see file. */
    std::vector<std::uint32_t> slotAt_;
    std::unordered_map<std::string, Addr> labels_;
};

} // namespace ztx::isa

#endif // ZTX_ISA_PROGRAM_HH
