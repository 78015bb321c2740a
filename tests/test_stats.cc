/** @file Unit tests for counters, distributions, and histograms. */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "common/stats.hh"

namespace {

using ztx::Counter;
using ztx::Distribution;
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
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Distribution, MeanMinMax)
{
    Distribution d;
    d.sample(2.0);
    d.sample(4.0);
    d.sample(9.0);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    EXPECT_EQ(d.count(), 3u);
}

TEST(Distribution, EmptyIsZero)
{
    Distribution d;
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
}

TEST(Distribution, ResetForgets)
{
    Distribution d;
    d.sample(100.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    d.sample(1.0);
    EXPECT_DOUBLE_EQ(d.max(), 1.0);
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
}

TEST(Histogram, NegativeClampsToFirstBucket)
{
    Histogram h(2, 1.0);
    h.sample(-5.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
}

TEST(StatGroup, NamedCountersPersist)
{
    StatGroup g("cpu0");
    g.counter("aborts").inc(3);
    EXPECT_EQ(g.counter("aborts").value(), 3u);
}

TEST(StatGroup, ValueReadsWithoutRegistering)
{
    StatGroup g("cpu0");
    EXPECT_EQ(g.value("tx.commits"), 0u);
    EXPECT_TRUE(g.counters().empty());
    g.counter("tx.commits").inc(4);
    EXPECT_EQ(g.value("tx.commits"), 4u);
    EXPECT_EQ(g.value("tx.aborts"), 0u);
    EXPECT_EQ(g.counters().size(), 1u);
}

TEST(CounterHandle, RegistersOnFirstIncrementOnly)
{
    StatGroup g("cpu0");
    ztx::CounterHandle h(g, "instructions");
    EXPECT_TRUE(g.counters().empty());
    h.inc();
    h.inc(4);
    ASSERT_EQ(g.counters().count("instructions"), 1u);
    EXPECT_EQ(g.counter("instructions").value(), 5u);
    // resetAll() keeps the node the handle caches.
    g.resetAll();
    h.inc();
    EXPECT_EQ(g.counter("instructions").value(), 1u);
}

TEST(CounterHandle, SharesACounterRegisteredByName)
{
    StatGroup g("cpu0");
    g.counter("tx.commits").inc(2);
    ztx::CounterHandle h(g, "tx.commits");
    h.inc();
    EXPECT_EQ(g.counter("tx.commits").value(), 3u);
    EXPECT_EQ(g.counters().size(), 1u);
}

TEST(StatGroup, ResetAllClearsEverything)
{
    StatGroup g("x");
    g.counter("a").inc(2);
    g.histogram("h", 4, 10.0).sample(5.0);
    g.resetAll();
    EXPECT_EQ(g.counter("a").value(), 0u);
    EXPECT_EQ(g.histogram("h", 4, 10.0).total(), 0u);
}

TEST(StatGroup, HistogramFirstRegistrationWins)
{
    StatGroup g("x");
    Histogram &a = g.histogram("h", 4, 10.0);
    Histogram &b = g.histogram("h", 99, 1.0);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.buckets(), 4u);
    EXPECT_DOUBLE_EQ(b.bucketWidth(), 10.0);
}

TEST(StatGroup, JsonRoundTrip)
{
    StatGroup g("cpu0");
    g.counter("tx.commits").inc(41);
    g.histogram("hist", 2, 16.0).sample(3.0);
    g.histogram("hist", 2, 16.0).sample(100.0);

    std::ostringstream os;
    g.dumpJson(os, 2);
    const auto parsed = Json::parse(os.str());
    ASSERT_TRUE(parsed.has_value());

    EXPECT_EQ(parsed->find("name")->str(), "cpu0");
    const Json *counters = parsed->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_EQ(counters->find("tx.commits")->asUint(), 41u);

    // No stat registers distributions; the key stays, empty, so
    // every stats document keeps its shape.
    const Json *dists = parsed->find("distributions");
    ASSERT_NE(dists, nullptr);
    EXPECT_EQ(dists->dump(), "{}");

    const Json *hist = parsed->find("histograms")->find("hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_DOUBLE_EQ(hist->find("bucket_width")->number(), 16.0);
    ASSERT_EQ(hist->find("buckets")->size(), 2u);
    EXPECT_EQ(hist->find("buckets")->at(0).asUint(), 1u);
    EXPECT_EQ(hist->find("buckets")->at(1).asUint(), 0u);
    EXPECT_EQ(hist->find("overflow")->asUint(), 1u);
    EXPECT_EQ(hist->find("total")->asUint(), 2u);
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
