/**
 * @file
 * Tests for the xmig-swift job pool and the shared
 * sweep harness: deterministic index ordering, serial-path identity
 * at jobs == 1, and exception propagation matching the serial loop.
 */

#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "sim/runner/job_pool.hpp"
#include "sim/runner/sweep.hpp"

namespace xmig {
namespace {

TEST(JobPool, ResolvesWorkerCount)
{
    EXPECT_EQ(JobPool(1).jobs(), 1u);
    EXPECT_EQ(JobPool(7).jobs(), 7u);
    EXPECT_EQ(JobPool(0).jobs(), JobPool::defaultJobs());
    EXPECT_GE(JobPool::defaultJobs(), 1u);
}

TEST(JobPool, ResultsLandInIndexOrder)
{
    const JobPool pool(8);
    const std::vector<uint64_t> out = runIndexed<uint64_t>(
        pool, 100, [](size_t i) { return uint64_t(i) * i + 3; });
    ASSERT_EQ(out.size(), 100u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], uint64_t(i) * i + 3);
}

// Many more jobs than workers, with every 37th job about a hundred
// times costlier than the rest: whatever the width, each index runs
// on exactly one worker and its result lands at its index.
TEST(JobPool, EveryJobRunsExactlyOnce)
{
    constexpr size_t kJobs = 600;
    const auto work = [](size_t i) {
        const uint64_t steps =
            i % 37 == 0 ? 200'000 : 500 + (i * 7919) % 3000;
        uint64_t acc = i;
        for (uint64_t k = 0; k < steps; ++k)
            acc = acc * 6364136223846793005ull + 1442695040888963407ull;
        return acc;
    };
    for (const unsigned jobs : {1u, 3u, 4u, 8u}) {
        SCOPED_TRACE(jobs);
        std::vector<std::atomic<int>> hits(kJobs);
        const std::vector<uint64_t> out = runIndexed<uint64_t>(
            JobPool(jobs), kJobs, [&](size_t i) {
                ++hits[i];
                return work(i);
            });
        for (size_t i = 0; i < kJobs; ++i) {
            EXPECT_EQ(hits[i].load(), 1) << i;
            EXPECT_EQ(out[i], work(i)) << i;
        }
    }
}

// jobs == 1 must be the *literal* serial path: every job executes
// inline on the calling thread, in index order.
TEST(JobPool, SingleWorkerRunsInlineInOrder)
{
    const JobPool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    pool.run(16, [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 16u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

// A single job is also inline, whatever the worker count.
TEST(JobPool, SingleJobRunsInline)
{
    const JobPool pool(8);
    const std::thread::id caller = std::this_thread::get_id();
    bool ran = false;
    pool.run(1, [&](size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ran = true;
    });
    EXPECT_TRUE(ran);
}

// The serial loop would surface the exception of the first failing
// index; the pool must rethrow that same one after the join, and the
// independent jobs after a failure must still have run.
TEST(JobPool, RethrowsLowestIndexedFailure)
{
    const JobPool pool(4);
    std::atomic<int> ran{0};
    try {
        pool.run(64, [&](size_t i) {
            ++ran;
            if (i == 41)
                throw std::runtime_error("job 41");
            if (i == 7)
                throw std::runtime_error("job 7");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 7");
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(JobPool, RethrowsLowestIndexedFailureInline)
{
    const JobPool pool(1);
    EXPECT_THROW(pool.run(4,
                          [](size_t i) {
                              if (i >= 2)
                                  throw std::range_error("boom");
                          }),
                 std::range_error);
}

RunResult
cellResult(size_t i)
{
    RunResult r;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "block %zu\n", i);
    r.text = buf;
    std::snprintf(buf, sizeof(buf), "%zu", i);
    r.rows.push_back({i < 2 ? "first" : "second", {buf, "x"}});
    return r;
}

// The sweep contract: whatever the worker count, collation happens in
// cell-index order, so the rendered output is bit-identical.
TEST(Sweep, ParallelCollationMatchesSerial)
{
    SweepSpec spec;
    spec.cells = 5;
    spec.run = cellResult;

    const std::vector<RunResult> serial = runSweep(spec, 1);
    const std::vector<RunResult> parallel = runSweep(spec, 8);
    ASSERT_EQ(serial.size(), parallel.size());

    EXPECT_EQ(collateText(serial), collateText(parallel));
    EXPECT_EQ(collateText(serial),
              "block 0\nblock 1\nblock 2\nblock 3\nblock 4\n");

    AsciiTable a({"i", "v"}), b({"i", "v"});
    collateRows(serial, a);
    collateRows(parallel, b);
    EXPECT_EQ(a.render(), b.render());
    // Section headers appear once per label change, in index order.
    const std::string text = a.render();
    EXPECT_NE(text.find("first"), std::string::npos);
    EXPECT_NE(text.find("second"), std::string::npos);
    EXPECT_LT(text.find("first"), text.find("second"));
    EXPECT_EQ(text.find("first"), text.rfind("first"));
    EXPECT_EQ(text.find("second"), text.rfind("second"));
}

TEST(Sweep, EmptySweepIsEmpty)
{
    SweepSpec spec;
    spec.cells = 0;
    spec.run = cellResult;
    const std::vector<RunResult> results = runSweep(spec, 4);
    EXPECT_TRUE(results.empty());
    EXPECT_EQ(collateText(results), "");
}

} // namespace
} // namespace xmig
