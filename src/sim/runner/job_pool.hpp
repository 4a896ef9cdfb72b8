/**
 * @file
 * Job pool for sweep parallelism (xmig-swift).
 *
 * Every experiment in the paper is a sweep of *independent*
 * single-program simulations: each (benchmark x config) cell builds
 * its own Machine, workload generator, RNG and metrics, runs to
 * completion, and reports a result. The pool executes those cells
 * across host threads while keeping the results in deterministic
 * job-index order, so a parallel sweep renders byte-identical output
 * to the serial one (docs/parallelism.md states the full contract).
 *
 * Scheduling: the workers share one atomic next-job cursor. Each
 * worker claims the next unclaimed index, runs it, and claims again
 * until the cursor passes n, so a worker that drew cheap cells simply
 * claims more of them. Jobs are whole simulations (milliseconds to
 * minutes), not microtasks, so one fetch_add per job is measurement
 * noise. Jobs start in index order: a costly cell late in the list
 * starts late and can end the sweep alone.
 *
 * With jobs() == 1 or a single submitted job, run() executes inline
 * on the calling thread: no threads are spawned, and the execution is
 * *exactly* the serial path, not merely equivalent to it.
 */

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace xmig {

/**
 * Fixed-width pool executing indexed jobs off a shared cursor.
 */
class JobPool
{
  public:
    /** Largest worker count a CLI accepts for --jobs (validJobs()). */
    static constexpr unsigned kMaxJobs = 4096;

    /** @param jobs worker count; 0 means defaultJobs(). */
    explicit JobPool(unsigned jobs);

    /** Resolved worker count (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Execute fn(0) .. fn(n-1) across the workers and return when all
     * are done. Exceptions thrown by jobs are captured per job; after
     * the join, the exception of the *lowest-indexed* failing job is
     * rethrown — the same one a serial loop would have surfaced first.
     * Jobs after a failing one still run (they are independent), which
     * keeps the executed-work set deterministic under any schedule.
     */
    void run(size_t n, const std::function<void(size_t)> &fn) const;

    /**
     * Host-parallelism default for --jobs: hardware_concurrency, or 1
     * when the runtime cannot tell.
     */
    static unsigned defaultJobs();

  private:
    unsigned jobs_;
};

/**
 * Typed fan-out: results land in a vector indexed by job number, so
 * collection order never depends on completion order.
 */
template <typename R, typename Fn>
std::vector<R>
runIndexed(const JobPool &pool, size_t n, Fn &&fn)
{
    std::vector<R> out(n);
    pool.run(n, [&](size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace xmig
