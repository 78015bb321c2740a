/**
 * @file
 * The ready-time scheduler's ready set: a winner (tournament) tree that
 * holds exactly one key per CPU (DESIGN.md §5b, "One ready key per
 * CPU").
 *
 * A CPU's key is `readyAt << idBits | cpu`, so the smallest key is
 * the lexicographic minimum (ready time, CPU id): the earliest ready
 * time, ties to the lower id. A CPU that must not run (halted, or a
 * replayed spinner that never wakes) holds all ones, which no ready
 * time packs to: idBits leaves room for one id above the largest
 * CPU. Leaves sit at the bottom of a complete binary tree; every
 * inner node holds the smaller of its children's keys, so the root
 * is the minimum and a write re-evaluates one leaf-to-root path.
 */

#ifndef ZTX_SIM_READY_TREE_HH
#define ZTX_SIM_READY_TREE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace ztx::sim {

/** One ready key per CPU; the minimum in O(1), a write in O(log n). */
class ReadyTree
{
  public:
    /** "Never ready": the CPU holds the all-ones key. */
    static constexpr Cycles never = ~Cycles(0);

    /** @p num_cpus CPUs, every one absent. */
    explicit ReadyTree(unsigned num_cpus)
    {
        while ((num_cpus >> idBits_) != 0)
            ++idBits_;
        idBits_ = std::max(idBits_, 1u);
        while (leaves_ < num_cpus)
            leaves_ *= 2;
        nodes_.assign(2 * leaves_, absent);
    }

    /** Bits of a key that hold the CPU id. */
    unsigned idBits() const { return idBits_; }

    /** The largest ready time a key can hold. */
    Cycles maxTime() const { return never >> idBits_; }

    /**
     * CPU @p id is ready at @p t; never makes it absent. A time
     * above maxTime() other than never is fatal.
     */
    void set(CpuId id, Cycles t)
    {
        std::uint64_t key = absent;
        if (t > maxTime()) {
            if (t != never)
                tooLate(id, t);
        } else {
            key = t << idBits_ | id;
        }
        std::size_t i = leaves_ + id;
        // Every inner node is already the minimum of its children.
        if (nodes_[i] == key)
            return;
        nodes_[i] = key;
        for (; i > 1; i >>= 1) {
            key = std::min(key, nodes_[i ^ 1]);
            nodes_[i >> 1] = key;
        }
    }

    /** True when every CPU is absent. */
    bool empty() const { return nodes_[1] == absent; }

    /** The CPU with the smallest key (not empty()). */
    CpuId minId() const
    {
        return CpuId(nodes_[1] & ((std::uint64_t(1) << idBits_) - 1));
    }

    /** Its ready time (not empty()). */
    Cycles minTime() const { return nodes_[1] >> idBits_; }

  private:
    static constexpr std::uint64_t absent = ~std::uint64_t(0);

    [[noreturn]] static void tooLate(CpuId id, Cycles t)
    {
        ztx_fatal("cpu ", id, " ready time ", t,
                  " does not fit the scheduler's ready key");
    }

    unsigned idBits_ = 0;
    /** Leaves in the bottom row: a power of two >= the CPU count. */
    std::size_t leaves_ = 1;
    /** nodes_[1] is the root; node i's children are 2i and 2i + 1. */
    std::vector<std::uint64_t> nodes_;
};

} // namespace ztx::sim

#endif // ZTX_SIM_READY_TREE_HH
