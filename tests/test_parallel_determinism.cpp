/**
 * @file
 * End-to-end xmig-swift determinism: the flagship Table 2 harness
 * must emit *byte-identical* stdout whatever --jobs is set to, with
 * and without an armed fault plan. This is the acceptance property
 * the sweep runner promises (docs/parallelism.md) — everything the
 * serial run prints, the parallel run prints, in the same order.
 */

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace xmig {
namespace {

#ifndef XMIG_BENCH_DIR
#define XMIG_BENCH_DIR "bench"
#endif

/** Run a shell command, capture stdout; abort the test on failure. */
std::string
capture(const std::string &cmd)
{
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) {
        ADD_FAILURE() << "popen failed: " << cmd;
        return "";
    }
    std::string out;
    std::array<char, 4096> buf;
    size_t n = 0;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        out.append(buf.data(), n);
    const int rc = pclose(pipe);
    EXPECT_EQ(rc, 0) << "non-zero exit from: " << cmd;
    return out;
}

std::string
table2(const std::string &extra)
{
    // Clear XMIG_JOBS so the environment of the ctest runner cannot
    // leak into the comparison.
    return capture("env -u XMIG_JOBS " XMIG_BENCH_DIR
                   "/bench_table2_quadcore --smoke " +
                   extra + " 2>/dev/null");
}

TEST(ParallelDeterminism, Table2SmokeIsByteIdenticalAcrossJobs)
{
    const std::string serial = table2("--jobs 1");
    ASSERT_FALSE(serial.empty());
    // The smoke sweep has 6 cells; 8 workers also covers the
    // workers > cells corner.
    EXPECT_EQ(serial, table2("--jobs 8"));
    EXPECT_EQ(serial, table2("--jobs 3"));
}

TEST(ParallelDeterminism, Table2SmokeWithFaultPlanIsByteIdentical)
{
    // Per-cell machines own their fault RNGs, so an armed plan must
    // not break the byte-identity contract either.
    const std::string plan =
        "--fault-plan \"seed=5;rate=2e-5:flip=oe;rate=2e-5:flip=tag;"
        "rate=1e-3:mig_drop\"";
    const std::string serial = table2("--jobs 1 " + plan);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, table2("--jobs 8 " + plan));
}

/** Read and delete one artifact a harness run left behind. */
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
    const std::string plan =
        " --fault-plan \"at=200000:core_off=1;at=500000:core_on=1\"";
    const std::string dir = testing::TempDir();
    struct Exports
    {
        std::string jsonl, trace;
    };
    auto exportsAt = [&](int jobs) {
        const std::string stem =
            dir + "xmig_pd_journal_j" + std::to_string(jobs);
        table2("--jobs " + std::to_string(jobs) + plan +
               " --journal-out " + stem + ".jsonl --trace-out " + stem +
               ".json");
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
 * bench_figure1 runs a multi-tenant arena per cell: every cell owns
 * one fiber per tenant and a shared L3, so this exercises
 * xmig-arena's claim that reference-interleave arbitration is
 * deterministic at any job count. A reduced mix set and budget keep
 * it CI-sized — byte-identity does not need the full crossover sweep.
 */
std::string
figure1(const std::string &extra)
{
    return capture("env -u XMIG_JOBS " XMIG_BENCH_DIR
                   "/bench_figure1 --instr 400000"
                   " --bench em3d+health"
                   " --bench bisort+mst+twolf+vortex " +
                   extra + " 2>/dev/null");
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
        Run run;
        run.out = figure1("--jobs " + std::to_string(jobs) +
                          " --trace-out " + path);
        capture("python3 -m json.tool " + path + " >/dev/null");
        run.trace = takeFile(path);
        return run;
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
        figure1("--jobs " + std::to_string(jobs) + " --csv " + path);
        std::ifstream in(path, std::ios::binary);
        EXPECT_TRUE(in.good()) << path;
        std::ostringstream ss;
        ss << in.rdbuf();
        std::remove(path.c_str());
        return ss.str();
    };
    const std::string serial = csvAt(1);
    ASSERT_FALSE(serial.empty());
    EXPECT_NE(serial.find("# crossover:"), std::string::npos);
    EXPECT_EQ(serial, csvAt(3));
    EXPECT_EQ(serial, csvAt(8));
}

TEST(ParallelDeterminism, JobsEnvironmentVariableIsHonored)
{
    const std::string serial = table2("--jobs 1");
    const std::string env =
        capture("env XMIG_JOBS=8 " XMIG_BENCH_DIR
                "/bench_table2_quadcore --smoke 2>/dev/null");
    EXPECT_EQ(serial, env);
}

} // namespace
} // namespace xmig
