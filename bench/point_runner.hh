/**
 * @file
 * Point-parallel sweeps. A bench's sweep points are independent
 * machines, so runPoints() runs them on host threads and hands their
 * results back indexed by point; the driver then prints its table
 * and records its JSON in point order, exactly as a serial loop
 * would, whatever order the points finished in.
 *
 * These are the only threads in zTX: each point builds and runs its
 * own sim::Machine on one thread, and src/ stays single-threaded.
 */

#ifndef ZTX_BENCH_POINT_RUNNER_HH
#define ZTX_BENCH_POINT_RUNNER_HH

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace ztx::bench {

/**
 * Largest summed weight of the points in flight at once. A point
 * weighs its simulated CPU count, which is what its machine's memory
 * grows with: two 100-CPU points may run together, a third waits.
 */
inline constexpr unsigned pointWeightCap = 200;

/** CPUs in this process's affinity mask (at least 1). */
unsigned hostWorkers();

/**
 * Call @p job(i) once for every point i < @p weights.size() on up to
 * @p workers threads (the caller's among them). Points start in
 * descending weight, ties in index order, and a point starts only
 * while the weight in flight plus its own stays within
 * pointWeightCap or nothing else is in flight. With one worker, or
 * with any trace category enabled (ztx::trace writes through one
 * global stream), every job runs on the calling thread in index
 * order. If a job throws, no further point starts, and the first
 * exception is rethrown once the running jobs have returned.
 */
void runPointJobs(unsigned workers, const std::vector<unsigned> &weights,
                  const std::function<void(std::size_t)> &job);

/**
 * Run @p fn(i) for every point as runPointJobs() does and return
 * the results indexed by point (the result type must be default
 * constructible).
 */
template <typename Fn>
auto
runPoints(unsigned workers, const std::vector<unsigned> &weights,
          Fn &&fn)
{
    std::vector<std::invoke_result_t<Fn &, std::size_t>> results(
        weights.size());
    runPointJobs(workers, weights,
                 [&](std::size_t i) { results[i] = fn(i); });
    return results;
}

/** runPoints() on one worker per CPU this process may run on. */
template <typename Fn>
auto
runPoints(const std::vector<unsigned> &weights, Fn &&fn)
{
    return runPoints(hostWorkers(), weights, std::forward<Fn>(fn));
}

} // namespace ztx::bench

#endif // ZTX_BENCH_POINT_RUNNER_HH
