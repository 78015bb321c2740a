#include "stats.hh"

#include <algorithm>
#include <utility>

#include "json.hh"
#include "log.hh"

namespace ztx {

void
Distribution::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
}

double
Distribution::mean() const
{
    return count_ ? sum_ / double(count_) : 0.0;
}

void
Distribution::reset()
{
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

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
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    if (i >= counts_.size())
        ztx_panic("Histogram bucket index out of range");
    return counts_[i];
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
}

StatGroup::StatGroup(std::string name) : name_(std::move(name))
{
}

Counter &
StatGroup::counter(const std::string &stat_name)
{
    return counters_[stat_name];
}

std::uint64_t
StatGroup::value(const std::string &stat_name) const
{
    const auto it = counters_.find(stat_name);
    return it == counters_.end() ? 0 : it->second.value();
}

Histogram &
StatGroup::histogram(const std::string &stat_name,
                     std::size_t buckets, double bucket_width)
{
    return histograms_
        .try_emplace(stat_name, buckets, bucket_width)
        .first->second;
}

void
StatGroup::resetAll()
{
    for (auto &[unused_name, c] : counters_)
        c.reset();
    for (auto &[unused_name, h] : histograms_)
        h.reset();
}

Json
StatGroup::toJson() const
{
    Json group = Json::object();
    group["name"] = name_;

    Json counters = Json::object();
    for (const auto &[stat, c] : counters_)
        counters[stat] = c.value();
    group["counters"] = std::move(counters);

    group["distributions"] = Json::object();

    Json hists = Json::object();
    for (const auto &[stat, h] : histograms_) {
        Json entry = Json::object();
        entry["bucket_width"] = h.bucketWidth();
        Json buckets = Json::array();
        for (std::size_t i = 0; i < h.buckets(); ++i)
            buckets.push(h.bucketCount(i));
        entry["buckets"] = std::move(buckets);
        entry["overflow"] = h.bucketCount(h.buckets());
        entry["total"] = h.total();
        hists[stat] = std::move(entry);
    }
    group["histograms"] = std::move(hists);
    return group;
}

void
StatGroup::dumpJson(std::ostream &os, int indent) const
{
    toJson().write(os, indent);
    os << '\n';
}

} // namespace ztx
