#include "os_model.hh"

namespace ztx::debug {

OsModel::OsModel(PageTable &page_table) : pageTable_(page_table)
{
    stats_.declare("interrupt.", interruptsByCode_, [](std::size_t code) {
        return tx::interruptCodeName(tx::InterruptCode(code));
    });
}

OsAction
OsModel::programInterrupt(const InterruptRecord &record)
{
    records_.push_back(record);
    interrupts_.inc();
    interruptsByCode_[unsigned(record.code)].inc();

    switch (record.code) {
      case tx::InterruptCode::PageFault:
        // "Page in" the faulting page; the program retries (outside
        // TX) or re-runs its abort handler (inside TX).
        pageTable_.markPresent(record.addr);
        return OsAction::Resume;
      case tx::InterruptCode::Operation:
      case tx::InterruptCode::PrivilegedOperation:
      case tx::InterruptCode::ConstraintViolation:
        return OsAction::Terminate;
      case tx::InterruptCode::FixedPointDivide:
      case tx::InterruptCode::DecimalData:
        // Inside a transaction the program has an abort handler to
        // resume into; outside, an unhandled arithmetic exception
        // terminates the program (SIGFPE-style).
        return record.fromTx ? OsAction::Resume : OsAction::Terminate;
      default:
        return OsAction::Resume;
    }
}

OsAction
OsModel::machineCheck(const MachineCheckRecord &record)
{
    machineChecks_.push_back(record);
    machineCheckCount_.inc();
    if (record.scrubbed) {
        machineCheckScrubbed_.inc();
        return OsAction::Resume;
    }
    // The memory image itself is corrupt: no refresh source exists.
    // Kill the workload item that owned the data and restart it.
    machineCheckRestarts_.inc();
    return OsAction::Restart;
}

} // namespace ztx::debug
