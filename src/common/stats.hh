/**
 * @file
 * Lightweight statistics containers in the spirit of gem5's stats
 * package: named scalar counters and histograms that modules
 * register into a StatGroup, written out as JSON.
 */

#ifndef ZTX_COMMON_STATS_HH
#define ZTX_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace ztx {

class Json;

/** A named monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    /** Add @p n events (default 1). */
    void
    inc(std::uint64_t n = 1)
    {
        value_ += n;
    }

    /** Current count. */
    std::uint64_t value() const { return value_; }

    /** Reset to zero (between measurement phases). */
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Fixed-bucket histogram over [0, bucketWidth * buckets). */
class Histogram
{
  public:
    /**
     * @param buckets Number of equal-width buckets.
     * @param bucket_width Width of each bucket; samples beyond the
     *        last bucket land in an overflow bucket.
     */
    Histogram(std::size_t buckets, double bucket_width);

    /** Record one sample. */
    void sample(double v);

    /** Count in bucket @p i (i == buckets() means overflow). */
    std::uint64_t bucketCount(std::size_t i) const;

    /** Number of regular buckets. */
    std::size_t buckets() const { return counts_.size() - 1; }

    /** Width of each regular bucket. */
    double bucketWidth() const { return bucketWidth_; }

    /** Total samples recorded. */
    std::uint64_t total() const { return total_; }

    /** Sum of the samples as given (before bucket clamping). */
    double sum() const { return sum_; }

    /** Forget all samples. */
    void reset();

  private:
    std::vector<std::uint64_t> counts_; // last entry is overflow
    double bucketWidth_;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

/**
 * A registry of named stats owned by a component; supports nested
 * group names ("cpu0.l1.hits") and a JSON dump.
 */
class StatGroup
{
  public:
    /** @param name Prefix prepended to every stat in dumps. */
    explicit StatGroup(std::string name);

    /** Create (or fetch) a counter under this group. */
    Counter &counter(const std::string &stat_name);

    /**
     * Value of counter @p stat_name; 0 when it was never registered.
     * Unlike counter(), reading never registers it.
     */
    std::uint64_t value(const std::string &stat_name) const;

    /**
     * Create (or fetch) a histogram under this group. The shape
     * parameters apply on first registration only; later fetches
     * return the existing histogram unchanged.
     */
    Histogram &histogram(const std::string &stat_name,
                         std::size_t buckets, double bucket_width);

    /** @name Read-only views over the registered stats @{ */
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }
    /** @} */

    /** Reset every stat in the group. */
    void resetAll();

    /**
     * The group as a JSON object: counters and histogram (widths/
     * buckets/overflow) detail. "distributions" is always an empty
     * object, kept so every stats document keeps its shape.
     */
    Json toJson() const;

    /** toJson(), serialized. */
    void dumpJson(std::ostream &os, int indent = -1) const;

    /** Group name. */
    const std::string &name() const { return name_; }

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
};

/**
 * A cached handle to one counter of a StatGroup, for hot paths that
 * would otherwise build a key string and search the group's map on
 * every increment.
 *
 * The counter is looked up on the handle's first increment, not at
 * construction: a counter registers exactly when a string-keyed
 * counter() call would have, so an untouched counter still never
 * appears in dumps. std::map nodes never move and resetAll() keeps
 * them, so the cached pointer stays valid for the group's lifetime.
 * Handles cannot be copied, which keeps an owner that holds one from
 * being copied into a handle that points at another object's group.
 */
class CounterHandle
{
  public:
    CounterHandle(StatGroup &group, const char *stat_name)
        : group_(group), name_(stat_name)
    {
    }

    CounterHandle(const CounterHandle &) = delete;
    CounterHandle &operator=(const CounterHandle &) = delete;

    /** Add @p n events to the counter, registering it if new. */
    void
    inc(std::uint64_t n = 1)
    {
        if (!counter_) [[unlikely]]
            counter_ = &group_.counter(name_);
        counter_->inc(n);
    }

  private:
    StatGroup &group_;
    const char *name_;
    Counter *counter_ = nullptr;
};

} // namespace ztx

#endif // ZTX_COMMON_STATS_HH
