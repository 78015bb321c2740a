/**
 * @file
 * Cycle-cost model of the zEC12 memory hierarchy.
 *
 * The paper gives L1 use latency (4 cycles) and the L1-miss penalty to
 * the private L2 (+7 cycles). Latencies beyond the L2 are not stated
 * in the paper; the values below are calibration constants chosen to
 * preserve the latency *hierarchy* (L3 << remote chip << remote MCM
 * << memory) that drives the step functions in Figure 5. They are
 * justified and sensitivity-checked in EXPERIMENTS.md.
 */

#ifndef ZTX_MEM_LATENCY_MODEL_HH
#define ZTX_MEM_LATENCY_MODEL_HH

#include <algorithm>

#include "common/types.hh"
#include "mem/topology.hh"

namespace ztx::mem {

/** Where a fetch was ultimately satisfied from. */
enum class DataSource : std::uint8_t
{
    L1,        ///< local L1 hit
    L2,        ///< local private L2
    L3,        ///< on-chip shared L3
    L4,        ///< local-MCM L4 (includes other chips on the MCM)
    RemoteMcm, ///< another MCM's caches
    Memory     ///< main storage
};

/** Per-hop cycle costs; see file comment for calibration notes. */
struct LatencyModel
{
    Cycles l1Hit = 4;
    Cycles l2Hit = 11;
    Cycles l3Hit = 40;
    Cycles l4Hit = 120;
    Cycles remoteMcm = 250;
    Cycles memory = 350;

    /** Cost of a fetch satisfied at @p src. */
    Cycles
    fetch(DataSource src) const
    {
        switch (src) {
          case DataSource::L1: return l1Hit;
          case DataSource::L2: return l2Hit;
          case DataSource::L3: return l3Hit;
          case DataSource::L4: return l4Hit;
          case DataSource::RemoteMcm: return remoteMcm;
          case DataSource::Memory: return memory;
        }
        return memory;
    }

    /**
     * Cost of an intervention (XI round trip plus cache-to-cache
     * transfer) between CPUs at the given hierarchical distance.
     */
    Cycles
    intervention(Distance d) const
    {
        switch (d) {
          case Distance::SameCpu: return 0;
          case Distance::SameChip: return l3Hit;
          case Distance::SameMcm: return l4Hit;
          case Distance::CrossMcm: return remoteMcm;
        }
        return remoteMcm;
    }

    /**
     * Stall before a requester repeats an access whose XI was
     * rejected (stiff-armed) by the current owner.
     */
    Cycles
    rejectRetry(Distance d) const
    {
        return intervention(d) / 2 + 8;
    }
};

} // namespace ztx::mem

#endif // ZTX_MEM_LATENCY_MODEL_HH
