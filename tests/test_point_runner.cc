/**
 * @file
 * Tests for the bench point runner (bench/point_runner.hh): results
 * come back indexed by point whatever order the workers finish in,
 * the weight in flight stays within pointWeightCap, points start
 * largest first, a point heavier than the cap still runs (alone),
 * a point's exception reaches the caller, and a traced run stays on
 * one thread in point order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "../bench/point_runner.hh"
#include "common/trace.hh"

namespace {

using ztx::bench::pointWeightCap;
using ztx::bench::runPoints;

/** Sleep @p ms milliseconds: a point's stand-in for simulated work. */
void
work(unsigned ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(PointRunner, ResultsInPointOrderAtAnyWorkerCount)
{
    const std::size_t n = 23;
    std::vector<unsigned> weights(n);
    std::vector<unsigned> durations(n);
    for (std::size_t i = 0; i < n; ++i) {
        weights[i] = 2 + unsigned(i * 7 % 50);
        durations[i] = unsigned(i % 6);
    }
    std::mt19937 rng(7);
    for (const unsigned workers : {1u, 2u, 3u, 4u, 7u}) {
        std::shuffle(durations.begin(), durations.end(), rng);
        std::vector<std::atomic<unsigned>> calls(n);
        const auto results =
            runPoints(workers, weights, [&](std::size_t i) {
                ++calls[i];
                work(durations[i]);
                return "point " + std::to_string(i);
            });
        ASSERT_EQ(results.size(), n) << workers << " workers";
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(results[i], "point " + std::to_string(i))
                << workers << " workers";
            EXPECT_EQ(calls[i].load(), 1u)
                << "point " << i << ", " << workers << " workers";
        }
    }
}

TEST(PointRunner, WeightInFlightStaysWithinCap)
{
    // Two 100-CPU points fill the cap; the rest must wait their turn.
    const std::vector<unsigned> weights = {2,   100, 24, 100, 60, 100,
                                           8,   50,  100, 24, 4, 80};
    std::atomic<unsigned> in_flight{0};
    std::atomic<unsigned> peak{0};
    std::atomic<unsigned> most_points{0};
    std::atomic<unsigned> points_in_flight{0};
    runPoints(4, weights, [&](std::size_t i) {
        const unsigned now = in_flight += weights[i];
        const unsigned points = ++points_in_flight;
        unsigned seen = peak.load();
        while (now > seen && !peak.compare_exchange_weak(seen, now)) {
        }
        seen = most_points.load();
        while (points > seen &&
               !most_points.compare_exchange_weak(seen, points)) {
        }
        work(3);
        --points_in_flight;
        in_flight -= weights[i];
        return 0;
    });
    EXPECT_LE(peak.load(), pointWeightCap);
    // The light points did overlap: the workers were really used.
    EXPECT_GT(most_points.load(), 1u);
}

TEST(PointRunner, PointHeavierThanCapRunsAloneAndFirst)
{
    const std::vector<unsigned> weights = {10, pointWeightCap + 50, 20,
                                           30};
    std::atomic<unsigned> in_flight{0};
    std::atomic<unsigned> started{0};
    unsigned heavy_saw = 0;
    unsigned started_before_heavy = 0;
    const auto results = runPoints(4, weights, [&](std::size_t i) {
        const unsigned now = in_flight += weights[i];
        const unsigned before = started++;
        if (i == 1) {
            heavy_saw = now;
            started_before_heavy = before;
        }
        work(3);
        in_flight -= weights[i];
        return int(i) + 1;
    });
    EXPECT_EQ(results, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(heavy_saw, pointWeightCap + 50);
    // Points start largest first.
    EXPECT_EQ(started_before_heavy, 0u);
}

TEST(PointRunner, ExceptionFromAPointReachesTheCaller)
{
    for (const unsigned workers : {1u, 4u}) {
        std::atomic<unsigned> calls{0};
        EXPECT_THROW(runPoints(workers, std::vector<unsigned>(8, 10),
                               [&](std::size_t i) {
                                   ++calls;
                                   if (i == 2)
                                       throw std::runtime_error("x");
                                   return 0;
                               }),
                     std::runtime_error)
            << workers << " workers";
        // Serially, the points after the throwing one never start.
        if (workers == 1) {
            EXPECT_EQ(calls.load(), 3u);
        }
    }
}

TEST(PointRunner, ZeroPoints)
{
    unsigned calls = 0;
    const auto results = runPoints(4, std::vector<unsigned>{},
                                   [&](std::size_t) { return ++calls; });
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(calls, 0u);
}

TEST(PointRunner, TracedRunStaysOnOneThreadInPointOrder)
{
    ztx::trace::enable(ztx::trace::Category::Tx);
    std::mutex mutex;
    std::vector<std::thread::id> threads;
    std::vector<std::size_t> order;
    runPoints(4, std::vector<unsigned>{2, 100, 8, 100, 24},
              [&](std::size_t i) {
                  std::lock_guard lock(mutex);
                  threads.push_back(std::this_thread::get_id());
                  order.push_back(i);
                  return 0;
              });
    ztx::trace::disableAll();

    std::vector<std::size_t> expected(5);
    std::iota(expected.begin(), expected.end(), std::size_t(0));
    EXPECT_EQ(order, expected);
    for (const std::thread::id id : threads)
        EXPECT_EQ(id, std::this_thread::get_id());
}

} // namespace
