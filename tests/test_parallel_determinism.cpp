/**
 * @file
 * End-to-end xmig-swift determinism: the paper experiments must emit
 * *byte-identical* stdout and artifacts whatever --jobs is set to,
 * with and without an armed fault plan.
 * This is the acceptance property the sweep runner promises
 * (docs/parallelism.md) — everything the serial run prints, the
 * parallel run prints, in the same order. The experiments run in
 * process, so a race detector follows every sweep cell.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "paper.hpp"

namespace xmig {
namespace {

/** Run experiment args[0] with flags args[1..]; returns its stdout. */
std::string
run(std::vector<std::string> args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return runExperiment(*findExperiment(args[0]),
                         static_cast<int>(argv.size()), argv.data());
}

/** Append `extra` to `args`. */
std::vector<std::string>
with(std::vector<std::string> args, const std::vector<std::string> &extra)
{
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
}

/** The Table 2 smoke sweep at `jobs` workers, plus `extra` flags. */
std::string
table2(int jobs, const std::vector<std::string> &extra = {})
{
    return run(with({"table2", "--smoke", "--jobs", std::to_string(jobs)},
                    extra));
}

TEST(ParallelDeterminism, Table2SmokeIsByteIdenticalAcrossJobs)
{
    const std::string serial = table2(1);
    ASSERT_FALSE(serial.empty());
    // The smoke sweep has 6 cells; 8 workers also covers the
    // workers > cells corner.
    EXPECT_EQ(serial, table2(8));
    EXPECT_EQ(serial, table2(3));
}

TEST(ParallelDeterminism, Table2SmokeWithFaultPlanIsByteIdentical)
{
    // Per-cell machines own their fault RNGs, so an armed plan must
    // not break the byte-identity contract either.
    const std::vector<std::string> plan = {
        "--fault-plan",
        "seed=5;rate=2e-5:flip=oe;rate=2e-5:flip=tag;rate=1e-3:mig_drop"};
    const std::string serial = table2(1, plan);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, table2(8, plan));
}

/** Read and delete one artifact a run left behind. */
std::string
takeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return ss.str();
}

TEST(ParallelDeterminism, JournalIsByteIdenticalAcrossJobs)
{
    // The xmig-lens journal is owned by the sampled machine, not the
    // process, so arming it must not force jobs=1 — and both of its
    // exports, the JSONL and the Chrome trace rendered from it, must
    // be a pure function of (seed, config, fault plan).
    const std::string dir = testing::TempDir();
    struct Exports
    {
        std::string jsonl, trace;
    };
    auto exportsAt = [&](int jobs) {
        const std::string stem =
            dir + "xmig_pd_journal_j" + std::to_string(jobs);
        table2(jobs, {"--fault-plan", "at=200000:core_off=1;"
                                      "at=500000:core_on=1",
                      "--journal-out", stem + ".jsonl", "--trace-out",
                      stem + ".json"});
        return Exports{takeFile(stem + ".jsonl"),
                       takeFile(stem + ".json")};
    };
    const Exports serial = exportsAt(1);
    ASSERT_FALSE(serial.jsonl.empty());
    EXPECT_NE(serial.jsonl.find("\"journal\":\"xmig-lens\""),
              std::string::npos);
    ASSERT_FALSE(serial.trace.empty());
    EXPECT_NE(serial.trace.find("\"traceEvents\""), std::string::npos);
    for (const int jobs : {3, 8}) {
        const Exports parallel = exportsAt(jobs);
        EXPECT_EQ(serial.jsonl, parallel.jsonl) << "jobs=" << jobs;
        EXPECT_EQ(serial.trace, parallel.trace) << "jobs=" << jobs;
    }
}

/**
 * The Figure 1 experiment runs a multi-tenant arena per cell: every
 * cell owns one fiber per tenant and a shared L3, so this exercises
 * xmig-arena's claim that reference-interleave arbitration is
 * deterministic at any job count. A reduced mix set and budget keep
 * it CI-sized — byte-identity does not need the full crossover sweep.
 */
std::string
figure1(int jobs, const std::vector<std::string> &extra)
{
    return run(with({"fig1", "--instr", "400000", "--bench", "em3d+health",
                     "--bench", "bisort+mst+twolf+vortex", "--jobs",
                     std::to_string(jobs)},
                    extra));
}

TEST(ParallelDeterminism, Figure1IsByteIdenticalAcrossJobs)
{
    // stdout, plus the first cell's arena journal rendered as a
    // Chrome trace, which must also be one valid JSON document.
    const std::string dir = testing::TempDir();
    struct Run
    {
        std::string out, trace;
    };
    auto runAt = [&](int jobs) {
        const std::string path =
            dir + "xmig_pd_fig1_j" + std::to_string(jobs) + ".json";
        Run r;
        r.out = figure1(jobs, {"--trace-out", path});
        r.trace = takeFile(path);
        EXPECT_TRUE(obs::jsonParseOk(r.trace)) << "jobs=" << jobs;
        return r;
    };
    const Run serial = runAt(1);
    ASSERT_FALSE(serial.out.empty());
    EXPECT_NE(serial.out.find("Crossover"), std::string::npos);
    EXPECT_NE(serial.trace.find("\"tenant_turn\""), std::string::npos);
    for (const int jobs : {3, 8}) {
        const Run parallel = runAt(jobs);
        EXPECT_EQ(serial.out, parallel.out) << "jobs=" << jobs;
        EXPECT_EQ(serial.trace, parallel.trace) << "jobs=" << jobs;
    }
}

TEST(ParallelDeterminism, Figure1CsvIsByteIdenticalAcrossJobs)
{
    // The --csv artifact is what CI uploads; it must hold the same
    // bytes whatever worker count produced it.
    const std::string dir = testing::TempDir();
    auto csvAt = [&](int jobs) {
        const std::string path =
            dir + "xmig_pd_fig1_j" + std::to_string(jobs) + ".csv";
        figure1(jobs, {"--csv", path});
        return takeFile(path);
    };
    const std::string serial = csvAt(1);
    ASSERT_FALSE(serial.empty());
    EXPECT_NE(serial.find("# crossover:"), std::string::npos);
    EXPECT_EQ(serial, csvAt(3));
    EXPECT_EQ(serial, csvAt(8));
}

/**
 * More experiments on the same sweep: at a tiny budget, with several
 * cells each, stdout at --jobs 4 must equal stdout at --jobs 1. Under
 * a race detector this also checks that what the cells share (a
 * timing model, parameters) is read-only. table1's benchmarks cross
 * suites, so its section headers come out of the collation.
 */
TEST(ParallelDeterminism, SweptExperimentsAreByteIdenticalAcrossJobs)
{
    const std::vector<std::vector<std::string>> cases = {
        {"table1", "--bench", "179.art", "--bench", "em3d", "--bench",
         "164.gzip"},
        {"updatebus"},
        {"timing", "--bench", "179.art", "--bench", "181.mcf"},
        {"pmig", "--bench", "179.art", "--bench", "181.mcf"},
        {"prefetch", "--bench", "171.swim", "--bench", "health"},
        {"ptrfilter", "--bench", "181.mcf", "--bench", "164.gzip"},
        {"l3", "--bench", "179.art", "--bench", "181.mcf"},
        {"resilience", "--smoke"},
    };
    for (const std::vector<std::string> &args : cases) {
        SCOPED_TRACE(args[0]);
        const auto at = [&](int jobs) {
            return run(with(args, {"--instr", "200000", "--jobs",
                                   std::to_string(jobs)}));
        };
        const std::string serial = at(1);
        ASSERT_FALSE(serial.empty());
        EXPECT_EQ(serial, at(4));
    }
}

} // namespace
} // namespace xmig
