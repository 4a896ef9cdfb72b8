#include "sim/runner/job_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace xmig {

unsigned
JobPool::defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

JobPool::JobPool(unsigned jobs)
    : jobs_(jobs == 0 ? defaultJobs() : jobs)
{
}

void
JobPool::run(size_t n, const std::function<void(size_t)> &fn) const
{
    if (n == 0)
        return;

    // Serial fast path: with one worker (or one job) nothing is
    // gained by spawning a thread, and running inline makes the
    // jobs==1 execution *the* serial path rather than a simulation
    // of it. Exceptions propagate naturally.
    if (jobs_ == 1 || n == 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // One slot per *job*: failures are reported by job index, so the
    // rethrown exception is schedule-independent. Each slot is
    // written by the one worker that claimed its job and read after
    // the join.
    std::vector<std::exception_ptr> errors(n);
    std::atomic<size_t> next{0};

    auto worker_body = [&] {
        for (;;) {
            const size_t job = next.fetch_add(1);
            if (job >= n)
                return; // every job claimed
            try {
                fn(job);
            } catch (...) {
                errors[job] = std::current_exception();
            }
        }
    };

    const size_t workers = std::min<size_t>(jobs_, n);
    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w)
        threads.emplace_back(worker_body);
    worker_body(); // the caller is worker 0
    for (std::thread &t : threads)
        t.join();

    for (size_t i = 0; i < n; ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }
}

} // namespace xmig
