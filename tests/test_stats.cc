/** @file Unit tests for counters and histograms. */

#include <gtest/gtest.h>

#include <array>

#include "common/json.hh"
#include "common/stats.hh"

namespace {

using ztx::Counter;
using ztx::Histogram;
using ztx::Json;
using ztx::StatGroup;

TEST(Counter, StartsAtZeroAndIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4, 10.0); // [0,10) [10,20) [20,30) [30,40) + overflow
    h.sample(0.0);
    h.sample(9.9);
    h.sample(10.0);
    h.sample(35.0);
    h.sample(40.0);  // overflow
    h.sample(999.0); // overflow
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.bucketCount(4), 2u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0 + 9.9 + 10.0 + 35.0 + 40.0 + 999.0);
}

TEST(Histogram, SumsSamplesAsGiven)
{
    Histogram h(2, 1.0);
    h.sample(100.0);
    h.sample(-1.0); // summed as given, counted in bucket 0
    EXPECT_EQ(h.total(), 2u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_DOUBLE_EQ(h.sum(), 99.0);
}

TEST(Histogram, NegativeClampsToFirstBucket)
{
    Histogram h(2, 1.0);
    h.sample(-5.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
}

/** A stats owner in the form the simulator's components use. */
struct Owner
{
    enum class Kind : unsigned { Red, Green };

    Owner()
    {
        stats.declare("kind.", byKind, [](std::size_t k) {
            return k ? "green" : "red";
        });
        stats.declare("hist", hist);
    }

    StatGroup stats{"cpu0"};
    Counter commits{stats, "tx.commits"};
    Counter aborts{stats, "tx.aborts"};
    std::array<Counter, 2> byKind;
    Histogram hist{2, 16.0};
};

TEST(StatGroup, NamedCountersPersist)
{
    Owner o;
    o.aborts.inc(3);
    o.byKind[unsigned(Owner::Kind::Green)].inc(2);
    EXPECT_EQ(o.stats.value("tx.aborts"), 3u);
    EXPECT_EQ(o.stats.value("kind.green"), 2u);
    o.aborts.inc();
    EXPECT_EQ(o.stats.value("tx.aborts"), 4u);
}

TEST(StatGroup, ValueReadsWithoutRegistering)
{
    Owner o;
    EXPECT_EQ(o.stats.value("tx.commits"), 0u);
    EXPECT_EQ(o.stats.value("kind.red"), 0u);
    EXPECT_EQ(o.stats.toJson().find("counters")->dump(), "{}");
}

TEST(StatGroupDeathTest, ValueOfAnUndeclaredCounterIsFatal)
{
    Owner o;
    // A misspelt name must not read as a zero count.
    EXPECT_DEATH(o.stats.value("tx.comits"), "declares no counter");
}

TEST(StatGroup, JsonRoundTrip)
{
    Owner o;
    o.commits.inc(41);
    o.byKind[unsigned(Owner::Kind::Red)].inc();
    o.hist.sample(3.0);
    o.hist.sample(100.0);

    const auto parsed = Json::parse(o.stats.toJson().dump(2));
    ASSERT_TRUE(parsed.has_value());

    EXPECT_EQ(parsed->find("name")->str(), "cpu0");
    // Only the counters that counted appear.
    EXPECT_EQ(parsed->find("counters")->dump(),
              "{\"kind.red\":1,\"tx.commits\":41}");
    EXPECT_EQ(parsed->find("distributions"), nullptr);

    const Json *hist = parsed->find("histograms")->find("hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->find("bucket_width")->number(), 16.0);
    ASSERT_EQ(hist->find("buckets")->size(), 2u);
    EXPECT_EQ(hist->find("buckets")->at(0).asUint(), 1u);
    EXPECT_EQ(hist->find("buckets")->at(1).asUint(), 0u);
    EXPECT_EQ(hist->find("overflow")->asUint(), 1u);
    EXPECT_EQ(hist->find("total")->asUint(), 2u);
}

TEST(StatGroup, HistogramWithoutSamplesStaysOut)
{
    Owner o;
    EXPECT_EQ(o.stats.toJson().find("histograms")->dump(), "{}");
    o.hist.sample(1.0);
    EXPECT_NE(o.stats.toJson().find("histograms")->find("hist"),
              nullptr);
}

TEST(Json, ScalarsRoundTrip)
{
    Json j = Json::object();
    j["u"] = std::uint64_t(18446744073709551615ull);
    j["neg"] = -42;
    j["pi"] = 3.25;
    j["s"] = "quote \" backslash \\ newline \n";
    j["t"] = true;
    j["n"] = nullptr;
    Json arr = Json::array();
    arr.push(1u);
    arr.push("two");
    j["arr"] = std::move(arr);

    const auto parsed = Json::parse(j.dump(2));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("u")->asUint(),
              18446744073709551615ull);
    EXPECT_DOUBLE_EQ(parsed->find("neg")->number(), -42.0);
    EXPECT_DOUBLE_EQ(parsed->find("pi")->number(), 3.25);
    EXPECT_EQ(parsed->find("s")->str(),
              "quote \" backslash \\ newline \n");
    EXPECT_TRUE(parsed->find("t")->boolean());
    EXPECT_TRUE(parsed->find("n")->isNull());
    EXPECT_EQ(parsed->find("arr")->size(), 2u);
    EXPECT_EQ(parsed->find("arr")->at(1).str(), "two");
}

TEST(Json, ParseRejectsMalformed)
{
    EXPECT_FALSE(Json::parse("").has_value());
    EXPECT_FALSE(Json::parse("{").has_value());
    EXPECT_FALSE(Json::parse("{\"a\":1,}").has_value());
    EXPECT_FALSE(Json::parse("[1, 2").has_value());
    EXPECT_FALSE(Json::parse("true false").has_value());
    EXPECT_FALSE(Json::parse("\"unterminated").has_value());
    EXPECT_TRUE(Json::parse("{\"a\": [1, 2.5, null]}").has_value());
}

} // namespace
