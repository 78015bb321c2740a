#include "stats.hh"

#include <utility>

#include "json.hh"
#include "log.hh"

namespace ztx {

Histogram::Histogram(std::size_t buckets, double bucket_width)
    : counts_(buckets + 1, 0), bucketWidth_(bucket_width)
{
    if (buckets == 0 || bucket_width <= 0.0)
        ztx_panic("Histogram needs >=1 bucket and positive width");
}

void
Histogram::sample(double v)
{
    std::size_t idx = buckets();
    if (v >= 0.0) {
        const auto raw = std::size_t(v / bucketWidth_);
        if (raw < buckets())
            idx = raw;
    } else {
        idx = 0; // clamp negatives into the first bucket
    }
    ++counts_[idx];
    ++total_;
    sum_ += v;
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    if (i >= counts_.size())
        ztx_panic("Histogram bucket index out of range");
    return counts_[i];
}

StatGroup::StatGroup(std::string name) : name_(std::move(name))
{
    // One allocation per group (a CPU declares 55 counters): growing
    // from empty made a 144-CPU machine's construction 17% slower.
    counters_.reserve(64);
}

std::uint64_t
StatGroup::value(std::string_view stat_name) const
{
    for (const NamedCounter &c : counters_) {
        const std::string_view prefix(c.prefix);
        if (stat_name.starts_with(prefix) &&
            stat_name.substr(prefix.size()) == c.name)
            return c.counter->value();
    }
    ztx_panic("stat group ", name_, " declares no counter \"",
              stat_name, "\"");
}

Json
StatGroup::toJson() const
{
    Json group = Json::object();
    group["name"] = name_;

    Json counters = Json::object();
    for (const NamedCounter &c : counters_)
        if (const std::uint64_t v = c.counter->value())
            counters[std::string(c.prefix) + c.name] = v;
    group["counters"] = std::move(counters);

    Json hists = Json::object();
    for (const NamedHistogram &named : histograms_) {
        const Histogram &h = *named.histogram;
        if (h.total() == 0)
            continue;
        Json entry = Json::object();
        entry["bucket_width"] = h.bucketWidth();
        Json buckets = Json::array();
        for (std::size_t i = 0; i < h.buckets(); ++i)
            buckets.push(h.bucketCount(i));
        entry["buckets"] = std::move(buckets);
        entry["overflow"] = h.bucketCount(h.buckets());
        entry["total"] = h.total();
        hists[named.name] = std::move(entry);
    }
    group["histograms"] = std::move(hists);
    return group;
}

} // namespace ztx
