/**
 * @file
 * Transaction abort reasons, abort codes, and condition-code policy.
 *
 * Abort codes follow the z/Architecture Transaction Diagnostic Block
 * convention (codes 2..16 for machine-detected conditions, 256 and up
 * for TABORT). The condition code distinguishes transient (CC2,
 * "worth retrying") from permanent (CC3, "use the fallback path")
 * aborts, as described in paper §II.A.
 */

#ifndef ZTX_TX_ABORT_HH
#define ZTX_TX_ABORT_HH

#include <cstdint>

#include "common/types.hh"

namespace ztx::tx {

/** Machine-detected abort conditions (TDB abort-code values). */
enum class AbortReason : std::uint16_t
{
    None = 0,
    ExternalInterrupt = 2,   ///< asynchronous interruption (timer,...)
    ProgramInterrupt = 4,    ///< unfiltered program exception
    MachineCheck = 5,
    IoInterrupt = 6,
    FetchOverflow = 7,       ///< read footprint exceeded tracking
    StoreOverflow = 8,       ///< store cache / store footprint full
    FetchConflict = 9,       ///< another CPU stores what we read
    StoreConflict = 10,      ///< another CPU accesses what we store
    RestrictedInstruction = 11,
    FilteredProgramInterrupt = 12,
    NestingDepthExceeded = 13,
    CacheFetchRelated = 14,  ///< tx-read line lost (e.g. LRU'd)
    CacheStoreRelated = 15,  ///< tx-dirty line lost
    CacheOther = 16,         ///< e.g. XI-reject hang-avoidance
    DataPoisoned = 17,       ///< poisoned line in the tx footprint (RAS)
    DiagnosticAbort = 254,   ///< Transaction Diagnostic Control abort
    Miscellaneous = 255,
    TAbortBase = 256,        ///< TABORT codes are >= 256
};

/** True if @p reason should set CC2 (transient, retry promising). */
constexpr bool
isTransient(AbortReason reason, std::uint64_t abort_code)
{
    switch (reason) {
      case AbortReason::ExternalInterrupt:
      case AbortReason::ProgramInterrupt:
      case AbortReason::IoInterrupt:
      case AbortReason::FetchConflict:
      case AbortReason::StoreConflict:
      case AbortReason::FilteredProgramInterrupt:
      case AbortReason::CacheFetchRelated:
      case AbortReason::CacheStoreRelated:
      case AbortReason::CacheOther:
      case AbortReason::DataPoisoned:
      case AbortReason::DiagnosticAbort:
        return true;
      case AbortReason::TAbortBase:
        // TABORT: the least significant bit of the code selects
        // transient (0 -> CC2) versus permanent (1 -> CC3).
        return (abort_code & 1) == 0;
      default:
        return false;
    }
}

/** Condition code the abort leaves behind (2 or 3). */
constexpr std::uint8_t
abortCc(AbortReason reason, std::uint64_t abort_code)
{
    return isTransient(reason, abort_code) ? 2 : 3;
}

/** Human-readable reason name. */
const char *abortReasonName(AbortReason reason);

/** Number of distinct abortReasonSlot() values. */
inline constexpr unsigned abortReasonSlots = 20;

/**
 * Dense index of @p reason, for per-reason tables: the named TDB
 * codes 0, 2 and 4-17 take slots 0-15, codes 254-256 take 16-18,
 * and every unnamed value shares the catch-all slot 19.
 */
constexpr unsigned
abortReasonSlot(AbortReason reason)
{
    const unsigned code = unsigned(reason);
    if (code == unsigned(AbortReason::None))
        return 0;
    if (code == unsigned(AbortReason::ExternalInterrupt))
        return 1;
    if (code >= unsigned(AbortReason::ProgramInterrupt) &&
        code <= unsigned(AbortReason::DataPoisoned))
        return code - 2;
    if (code >= unsigned(AbortReason::DiagnosticAbort) &&
        code <= unsigned(AbortReason::TAbortBase))
        return code - unsigned(AbortReason::DiagnosticAbort) + 16;
    return abortReasonSlots - 1;
}

/** abortReasonName() of the reasons in @p slot ("?" for the catch-all). */
const char *abortSlotName(unsigned slot);

/** Program-interruption codes the simulator models. */
enum class InterruptCode : std::uint8_t
{
    None = 0,
    Operation,           ///< invalid opcode (group 2)
    PrivilegedOperation, ///< group 2
    PageFault,           ///< group 3 (access)
    FixedPointDivide,    ///< group 4 (arithmetic)
    DecimalData,         ///< group 4 (arithmetic)
    ConstraintViolation, ///< constrained-TX rule broken (unfilterable)
    PerEvent,            ///< Program Event Recording (unfilterable)
};

/** Number of InterruptCode values. */
inline constexpr unsigned interruptCodes =
    unsigned(InterruptCode::PerEvent) + 1;

/** Human-readable interrupt-code name. */
const char *interruptCodeName(InterruptCode code);

/**
 * Decide whether a program-exception condition detected inside a
 * transaction is filtered (no OS interruption) under the effective
 * PIFC (paper §II.C).
 *
 * @param code The exception.
 * @param pifc Effective filtering control (max over the nest), 0..2.
 * @param instruction_fetch True if the exception relates to fetching
 *        the instruction text itself; those are never filtered.
 */
bool isFiltered(InterruptCode code, std::uint8_t pifc,
                bool instruction_fetch);

} // namespace ztx::tx

#endif // ZTX_TX_ABORT_HH
