/**
 * @file
 * The figure 5(f) experiment: statistical abort rate of a
 * transaction reading n random congruence classes, with and without
 * the L1 LRU-extension scheme — i.e., with the read-footprint wall
 * at 64 rows x 6 ways (L1) versus 512 rows x 8 ways (L2).
 */

#ifndef ZTX_WORKLOAD_FOOTPRINT_HH
#define ZTX_WORKLOAD_FOOTPRINT_HH

#include <cstdint>

#include "sim/machine.hh"
#include "workload/report.hh"

namespace ztx::workload {

/**
 * Configuration of the footprint Monte-Carlo. The LRU-extension
 * scheme is `machine.tm.lruExtensionEnabled`.
 */
struct FootprintConfig
{
    unsigned trials = 100;
    std::uint64_t seed = 1;
    sim::MachineConfig machine{};
};

/** Detailed outcome of one footprint Monte-Carlo point. */
struct FootprintResult
{
    /** Fraction of trials whose transaction aborted, in [0, 1]. */
    double abortRate = 0.0;
    unsigned trials = 0;
    unsigned abortedTrials = 0;
    /** Simulated cycles summed over the trials. */
    Cycles simCycles = 0;
    /** Instructions executed, summed over the trials. */
    std::uint64_t instructions = 0;
    /** Abort counts keyed by tx::abortReasonName(). */
    std::map<std::string, std::uint64_t> abortsByReason;
};

/**
 * Measure single-attempt transactions that load @p lines random
 * cache lines, with full abort accounting.
 */
FootprintResult measureFootprint(unsigned lines,
                                 const FootprintConfig &cfg);

/**
 * Measure the abort rate of single-attempt transactions that load
 * @p lines random cache lines.
 * @return Fraction of trials whose transaction aborted, in [0, 1].
 */
double measureFootprintAbortRate(unsigned lines,
                                 const FootprintConfig &cfg);

} // namespace ztx::workload

#endif // ZTX_WORKLOAD_FOOTPRINT_HH
