/**
 * @file
 * Stub operating system: receives (unfiltered) program interruptions,
 * resolves page faults by paging the target in, records everything
 * for tests, and applies the PER policies the paper assigns to the
 * OS (e.g. enabling event suppression so an aborted constrained
 * transaction can complete on retry).
 */

#ifndef ZTX_DEBUG_OS_MODEL_HH
#define ZTX_DEBUG_OS_MODEL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "debug/page_table.hh"
#include "tx/abort.hh"

namespace ztx::debug {

/** What the interrupted CPU should do after the OS returns. */
enum class OsAction : std::uint8_t
{
    /** Return to the program-old PSW (fault resolved / recorded). */
    Resume,
    /** Unrecoverable program error: stop the CPU. */
    Terminate,
    /**
     * Data lost beyond repair (memory-side poison): the OS kills the
     * affected workload item and restarts it from scratch rather
     * than stopping the CPU.
     */
    Restart,
};

/** One recorded program interruption, for test inspection. */
struct InterruptRecord
{
    CpuId cpu;
    tx::InterruptCode code;
    Addr addr;          ///< faulting address, if applicable
    bool fromTx;        ///< detected during transactional execution
    bool fromConstrained;
};

/** One recorded machine check (line poisoning), for test inspection. */
struct MachineCheckRecord
{
    CpuId cpu;
    Addr line;       ///< poisoned line that triggered the check
    bool scrubbed;   ///< a clean copy existed and was refreshed
    bool fromTx;     ///< the access that tripped it was transactional
};

/** The simulation's operating system model. */
class OsModel
{
  public:
    explicit OsModel(PageTable &page_table);

    /**
     * Handle a program interruption.
     *
     * Page faults are resolved (the page is marked present) and the
     * program resumes. Operation exceptions and constraint
     * violations terminate the program, matching what a real OS
     * would do with an unhandled SIGILL-class condition. Everything
     * else is recorded and resumed.
     */
    OsAction programInterrupt(const InterruptRecord &record);

    /**
     * Handle a machine check raised by an access to a poisoned line
     * (RAS model, DESIGN.md §5c). The CPU has already attempted the
     * scrub (refresh-from-memory); @p record.scrubbed says whether a
     * clean copy existed. Scrubbed checks resume the program;
     * unscrubbed ones (memory-side poison) ask the CPU to kill and
     * restart the affected workload item.
     */
    OsAction machineCheck(const MachineCheckRecord &record);

    /**
     * Policy knob (paper §II.E.2): when a PER event aborts a
     * constrained transaction, the OS should enable PER event
     * suppression so the retry can complete. The CPU model consults
     * this flag when delivering such interrupts.
     */
    bool autoSuppressPerForConstrained = true;

    /** All interruptions seen, in order. */
    const std::vector<InterruptRecord> &records() const
    {
        return records_;
    }

    /** Count of interruptions with @p code. */
    std::uint64_t
    countOf(tx::InterruptCode code) const
    {
        return interruptsByCode_[unsigned(code)].value();
    }

    /** All machine checks seen, in order. */
    const std::vector<MachineCheckRecord> &machineCheckRecords() const
    {
        return machineChecks_;
    }

    /** Stats group ("os.*"). */
    const StatGroup &stats() const { return stats_; }

  private:
    PageTable &pageTable_;
    std::vector<InterruptRecord> records_;
    std::vector<MachineCheckRecord> machineChecks_;
    StatGroup stats_{"os"};
    /** @name Counters, declared in stats_ @{ */
    Counter interrupts_{stats_, "interrupts"};
    Counter machineCheckCount_{stats_, "machine_checks"};
    Counter machineCheckScrubbed_{stats_, "machine_check.scrubbed"};
    Counter machineCheckRestarts_{stats_, "machine_check.restarts"};
    /** "interrupt.<code>", by tx::InterruptCode. */
    std::array<Counter, tx::interruptCodes> interruptsByCode_;
    /** @} */
};

} // namespace ztx::debug

#endif // ZTX_DEBUG_OS_MODEL_HH
