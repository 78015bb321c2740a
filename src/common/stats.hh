/**
 * @file
 * Lightweight statistics containers in the spirit of gem5's stats
 * package: scalar counters and histograms that their owners declare
 * once, by name, in a StatGroup written out as JSON.
 */

#ifndef ZTX_COMMON_STATS_HH
#define ZTX_COMMON_STATS_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ztx {

class Json;
class StatGroup;

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    /** Declared in @p group, which its owner declares first. */
    Counter(StatGroup &group, const char *stat_name);

    /** Add @p n events (default 1). */
    void
    inc(std::uint64_t n = 1)
    {
        value_ += n;
    }

    /** Current count. */
    std::uint64_t value() const { return value_; }

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

  private:
    std::vector<std::uint64_t> counts_; // last entry is overflow
    double bucketWidth_;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

/**
 * The named counters and histograms of one component ("cpu0",
 * "hierarchy", ...). The component owns each stat as a member and
 * declares it here once, at construction, under a string literal;
 * the group keeps a name and a pointer per stat. An owner that holds
 * a group can be neither copied nor moved.
 */
class StatGroup
{
  public:
    /** @param name The group's name in stats documents. */
    explicit StatGroup(std::string name);

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Declare counter @p c under @p stat_name, a string literal. */
    void
    declare(const char *stat_name, const Counter &c)
    {
        counters_.push_back({"", stat_name, &c});
    }

    /**
     * Declare a counter family over an enum: @p family[i] is named
     * @p prefix followed by @p name_of(i), a string literal.
     */
    template <std::size_t N, class NameOf>
    void
    declare(const char *prefix, const std::array<Counter, N> &family,
            NameOf name_of)
    {
        for (std::size_t i = 0; i < N; ++i)
            counters_.push_back({prefix, name_of(i), &family[i]});
    }

    /** Declare histogram @p h under @p stat_name, a string literal. */
    void
    declare(const char *stat_name, const Histogram &h)
    {
        histograms_.push_back({stat_name, &h});
    }

    /** Value of declared counter @p stat_name; fatal if undeclared. */
    std::uint64_t value(std::string_view stat_name) const;

    /**
     * The group as a JSON object: its name, each non-zero counter,
     * and each histogram that holds a sample (widths/buckets/
     * overflow/total).
     */
    Json toJson() const;

  private:
    struct NamedCounter
    {
        const char *prefix;
        const char *name;
        const Counter *counter;
    };
    struct NamedHistogram
    {
        const char *name;
        const Histogram *histogram;
    };

    std::string name_;
    std::vector<NamedCounter> counters_;
    std::vector<NamedHistogram> histograms_;
};

inline Counter::Counter(StatGroup &group, const char *stat_name)
{
    group.declare(stat_name, *this);
}

} // namespace ztx

#endif // ZTX_COMMON_STATS_HH
