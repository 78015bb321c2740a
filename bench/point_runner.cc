#include "point_runner.hh"

#include <sched.h>

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/trace.hh"

namespace ztx::bench {

unsigned
hostWorkers()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return unsigned(std::max(1, CPU_COUNT(&set)));
}

void
runPointJobs(unsigned workers, const std::vector<unsigned> &weights,
             const std::function<void(std::size_t)> &job)
{
    const std::size_t n = weights.size();
    if (workers <= 1 || n <= 1 || trace::anyEnabled()) {
        for (std::size_t i = 0; i < n; ++i)
            job(i);
        return;
    }

    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t(0));
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return weights[a] > weights[b];
                     });

    std::mutex mutex;
    std::condition_variable finished;
    std::size_t next = 0;     // position in order of the next point
    unsigned in_flight = 0;   // summed weight of the running points
    std::exception_ptr error; // first exception a job threw
    const auto worker = [&] {
        std::unique_lock lock(mutex);
        for (;;) {
            finished.wait(lock, [&] {
                return next == n || error || in_flight == 0 ||
                       in_flight + weights[order[next]] <=
                           pointWeightCap;
            });
            if (next == n || error)
                return;
            const std::size_t i = order[next++];
            in_flight += weights[i];
            lock.unlock();
            std::exception_ptr thrown;
            try {
                job(i);
            } catch (...) {
                thrown = std::current_exception();
            }
            lock.lock();
            in_flight -= weights[i];
            if (thrown && !error)
                error = thrown;
            finished.notify_all();
        }
    };

    {
        // Joined on scope exit, also when starting a thread throws.
        std::vector<std::jthread> threads;
        for (std::size_t t = 1; t < std::min<std::size_t>(workers, n);
             ++t)
            threads.emplace_back(worker);
        worker();
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace ztx::bench
