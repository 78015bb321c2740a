/**
 * @file
 * The I/O subsystem as a coherence participant.
 *
 * The architecture requires transactions to be isolated against the
 * I/O subsystem in both directions (paper §II.A): I/O cannot observe
 * pending transactional stores, and an I/O access that conflicts
 * with a transactional footprint aborts the transaction (abort code
 * 6 / I/O interruption class). zTX models channel traffic as DMA
 * descriptors executed between CPU steps: each transfer acquires its
 * lines through the same XI protocol as a CPU and therefore drives
 * the same conflict machinery.
 *
 * The subsystem occupies a reserved CPU slot in the topology/
 * directory (its CacheClient never holds transactional state and
 * never rejects).
 */

#ifndef ZTX_SIM_IO_SUBSYSTEM_HH
#define ZTX_SIM_IO_SUBSYSTEM_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/hierarchy.hh"
#include "mem/main_memory.hh"

namespace ztx::sim {

/** One DMA transfer request. */
struct IoRequest
{
    bool write = false;       ///< device -> memory when true
    Addr addr = 0;
    std::uint32_t length = 0; ///< bytes
    /** For writes: the byte pattern to store (repeated). */
    std::uint8_t pattern = 0;
};

/** Channel-subsystem model driving DMA through the hierarchy. */
class IoSubsystem : public mem::CacheClient
{
  public:
    /**
     * @param hier Shared hierarchy; the subsystem registers itself
     *        as the client of @p agent_id.
     * @param memory Functional backing store.
     * @param agent_id Reserved CPU slot used on the coherence
     *        fabric (must not be an active CPU).
     */
    IoSubsystem(mem::Hierarchy &hier, mem::MainMemory &memory,
                CpuId agent_id);

    /** Queue a transfer; it executes across subsequent pump calls. */
    void submit(const IoRequest &request);

    /**
     * Advance the channel engine: process up to one cache line of
     * the current transfer. Rejected XIs retry on later pumps.
     * @return Cycle cost consumed (0 when idle).
     */
    Cycles pump();

    /** True when no transfer is pending or in flight. */
    bool idle() const;

    /** Completed transfer count. */
    std::uint64_t completed() const { return completed_.value(); }

    /** Read bytes the way the device would (after its transfer). */
    std::uint64_t deviceRead(Addr addr, unsigned size) const;

    /** Stats ("io.*"): transfers, lines, rejects. */
    const StatGroup &stats() const { return stats_; }

    /** @name mem::CacheClient (never rejects, never aborts) @{ */
    mem::XiResponse incomingXi(const mem::XiContext &ctx) override;
    void l1Evicted(Addr line, std::uint8_t flags) override;
    /** @} */

  private:
    mem::Hierarchy &hier_;
    mem::MainMemory &memory_;
    CpuId agentId_;
    std::deque<IoRequest> queue_;
    std::uint64_t progress_ = 0; ///< bytes done of the front request
    StatGroup stats_{"io"};
    /** @name Counters, declared in stats_ @{ */
    Counter requests_{stats_, "requests"};
    Counter rejected_{stats_, "rejected"};
    Counter lines_{stats_, "lines"};
    Counter completed_{stats_, "completed"};
    /** @} */
};

} // namespace ztx::sim

#endif // ZTX_SIM_IO_SUBSYSTEM_HH
