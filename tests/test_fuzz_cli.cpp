/**
 * @file
 * xmig-storm CLI hardening: the strict parseFuzzCli contract
 * (in-process) plus end-to-end exit-code checks against the real
 * xmig_fuzz binary — unknown flags and malformed budgets must exit 2
 * with usage text, distinct from exit 1 = failures found.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/fuzz_cli.hpp"
#include "sim/runner/job_pool.hpp"

namespace xmig {
namespace {

FuzzCliParse
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "xmig_fuzz");
    return parseFuzzCli(static_cast<int>(args.size()), args.data());
}

TEST(FuzzCli, DefaultsAreUniformCampaign)
{
    const FuzzCliParse p = parse({});
    ASSERT_EQ(p.exitCode, -1);
    EXPECT_EQ(p.options.mode, FuzzCliOptions::Mode::Campaign);
    EXPECT_EQ(p.options.seed, 1u);
    EXPECT_EQ(p.options.campaign.plans, 200u);
    EXPECT_EQ(p.options.campaign.instructions, 150'000u);
    EXPECT_TRUE(p.options.campaign.minimize);
    EXPECT_FALSE(p.options.stormWorkloads);
    // The campaign defaults are CampaignConfig's own, and the
    // workload is the one every fuzz case defaults to.
    EXPECT_EQ(p.options.campaign.benchmark, kDefaultFuzzBenchmark);
    EXPECT_EQ(p.options.campaign.benchmark, FuzzCase{}.benchmark);
    EXPECT_NE(std::string(fuzzCliUsage()).find(
                  std::string("workload (default ") +
                  kDefaultFuzzBenchmark + ")"),
              std::string::npos);
}

TEST(FuzzCli, SmokeChangesOnlyTheDefaults)
{
    const FuzzCliParse smoke = parse({"--smoke"});
    ASSERT_EQ(smoke.exitCode, -1) << smoke.error;
    EXPECT_EQ(smoke.options.campaign.plans, 50u);
    EXPECT_EQ(smoke.options.campaign.instructions, 60'000u);

    // An explicit value wins, even one equal to the plain default.
    const FuzzCliParse p = parse(
        {"--smoke", "--plans", "200", "--instr", "150000"});
    ASSERT_EQ(p.exitCode, -1) << p.error;
    EXPECT_EQ(p.options.campaign.plans, 200u);
    EXPECT_EQ(p.options.campaign.instructions, 150'000u);
    EXPECT_EQ(parse({"--plans", "200", "--smoke"}).options.campaign.plans, 200u);
}

TEST(FuzzCli, ParsesAFullSoakInvocation)
{
    const FuzzCliParse p = parse(
        {"--guided", "--seed", "7", "--plans", "128", "--jobs", "4",
         "--instr", "50000", "--bench", "179.art", "--corpus",
         "/tmp/corpus", "--repro-dir", "/tmp/repros",
         "--storm-workloads", "--no-minimize"});
    ASSERT_EQ(p.exitCode, -1) << p.error;
    EXPECT_EQ(p.options.mode, FuzzCliOptions::Mode::Guided);
    EXPECT_EQ(p.options.seed, 7u);
    EXPECT_EQ(p.options.campaign.plans, 128u);
    EXPECT_EQ(p.options.jobs, 4u);
    EXPECT_EQ(p.options.campaign.instructions, 50'000u);
    EXPECT_EQ(p.options.campaign.benchmark, "179.art");
    EXPECT_EQ(p.options.campaign.corpusDir, "/tmp/corpus");
    EXPECT_EQ(p.options.campaign.reproDir, "/tmp/repros");
    EXPECT_TRUE(p.options.stormWorkloads);
    EXPECT_FALSE(p.options.campaign.minimize);
}

TEST(FuzzCli, ReplayCarriesThePlan)
{
    const FuzzCliParse p =
        parse({"--replay", "seed=5;rate=0.01:bus_drop",
               "--workload-seed", "9"});
    ASSERT_EQ(p.exitCode, -1) << p.error;
    EXPECT_EQ(p.options.mode, FuzzCliOptions::Mode::Replay);
    EXPECT_EQ(p.options.replayPlan, "seed=5;rate=0.01:bus_drop");
    EXPECT_EQ(p.options.workloadSeed, 9u);
}

TEST(FuzzCli, HelpExitsZero)
{
    EXPECT_EQ(parse({"--help"}).exitCode, 0);
    EXPECT_EQ(parse({"-h"}).exitCode, 0);
    EXPECT_NE(std::string(fuzzCliUsage()).find("exit codes"),
              std::string::npos);
}

TEST(FuzzCli, UnknownFlagIsUsageError)
{
    const FuzzCliParse p = parse({"--frobnicate"});
    EXPECT_EQ(p.exitCode, 2);
    EXPECT_NE(p.error.find("unknown flag '--frobnicate'"),
              std::string::npos);
    // Typoed known flags too.
    EXPECT_EQ(parse({"--sead", "3"}).exitCode, 2);
    // Retired flags: a soak is --guided --corpus, its budget --plans.
    for (const char *retired :
         {"--soak", "--budget", "--batch", "--no-journal"}) {
        const FuzzCliParse r = parse({retired, "8"});
        EXPECT_EQ(r.exitCode, 2) << retired;
        EXPECT_NE(r.error.find("unknown flag"), std::string::npos);
    }
}

TEST(FuzzCli, MalformedNumbersAreUsageErrors)
{
    for (const auto &args : std::vector<std::vector<const char *>>{
             {"--plans", "12x"},
             {"--plans", "-5"},
             {"--plans", ""},
             {"--plans", "two hundred"},
             {"--seed", "0x10"},
             {"--jobs", "4.5"},
         }) {
        const FuzzCliParse p = parse(args);
        EXPECT_EQ(p.exitCode, 2) << args[0] << " " << args[1];
        EXPECT_NE(p.error.find("malformed value"), std::string::npos)
            << p.error;
    }
}

TEST(FuzzCli, MissingAndZeroValuesAreUsageErrors)
{
    EXPECT_EQ(parse({"--plans"}).exitCode, 2);
    EXPECT_EQ(parse({"--bench"}).exitCode, 2);
    EXPECT_EQ(parse({"--bench", ""}).exitCode, 2);
    EXPECT_EQ(parse({"--replay"}).exitCode, 2);
    // Counts that must be positive.
    EXPECT_EQ(parse({"--plans", "0"}).exitCode, 2);
    EXPECT_EQ(parse({"--jobs", "0"}).exitCode, 2);
    EXPECT_EQ(parse({"--instr", "0"}).exitCode, 2);
    // --jobs shares xmig_paper's bound: parse only, no pool is built.
    const std::string past_bound = std::to_string(JobPool::kMaxJobs + 1);
    EXPECT_EQ(parse({"--jobs", past_bound.c_str()}).exitCode, 2);
    const std::string at_bound = std::to_string(JobPool::kMaxJobs);
    EXPECT_EQ(parse({"--jobs", at_bound.c_str()}).options.jobs,
              JobPool::kMaxJobs);
    // A count past UINT64_MAX is malformed, not saturated.
    EXPECT_EQ(parse({"--plans", "18446744073709551616"}).exitCode, 2);
    // Seeds may legitimately be zero.
    EXPECT_EQ(parse({"--seed", "0"}).exitCode, -1);
    EXPECT_EQ(parse({"--workload-seed", "0"}).exitCode, -1);
}

TEST(FuzzCli, ConflictingModesAreUsageErrors)
{
    EXPECT_EQ(parse({"--guided", "--self-test"}).exitCode, 2);
    EXPECT_EQ(
        parse({"--self-test", "--replay", "seed=1"}).exitCode, 2);
    EXPECT_EQ(
        parse({"--guided", "--replay", "seed=1"}).exitCode, 2);
    // A corpus feeds the guided source only.
    const FuzzCliParse p = parse({"--corpus", "/tmp/c"});
    EXPECT_EQ(p.exitCode, 2);
    EXPECT_NE(p.error.find("--corpus"), std::string::npos);
    EXPECT_EQ(parse({"--self-test", "--corpus", "/tmp/c"}).exitCode, 2);
}

#ifdef XMIG_TOOLS_DIR

/** Run the real binary, return its exit code, capture its output. */
int
runTool(const std::string &args, std::string *out)
{
    const std::string cmd = std::string(XMIG_TOOLS_DIR) +
                            "/xmig_fuzz " + args + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    if (pipe == nullptr)
        return -1;
    char buf[512];
    out->clear();
    while (fgets(buf, sizeof buf, pipe) != nullptr)
        *out += buf;
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(FuzzCliBinary, UsageErrorsExitTwoWithUsageText)
{
    std::string out;
    EXPECT_EQ(runTool("--frobnicate", &out), 2);
    EXPECT_NE(out.find("unknown flag '--frobnicate'"),
              std::string::npos);
    EXPECT_NE(out.find("usage: xmig_fuzz"), std::string::npos);

    EXPECT_EQ(runTool("--plans 12x", &out), 2);
    EXPECT_NE(out.find("malformed value for --plans"),
              std::string::npos);

    EXPECT_EQ(runTool("--soak --corpus c --budget 8", &out), 2);
    EXPECT_NE(out.find("unknown flag '--soak'"), std::string::npos);
    EXPECT_EQ(runTool("--corpus c", &out), 2);
    EXPECT_NE(out.find("--corpus only makes sense with --guided"),
              std::string::npos);

    EXPECT_EQ(runTool("--guided --replay seed=1", &out), 2);
    EXPECT_NE(out.find("conflicting modes"), std::string::npos);
}

TEST(FuzzCliBinary, HelpExitsZeroAndCleanRunsExitZero)
{
    std::string out;
    EXPECT_EQ(runTool("--help", &out), 0);
    EXPECT_NE(out.find("usage: xmig_fuzz"), std::string::npos);

    // A tiny clean guided campaign: exit 0 and a coverage line.
    EXPECT_EQ(runTool("--guided --smoke --seed 1 --plans 4 --jobs 2",
                      &out),
              0);
    EXPECT_NE(out.find("coverage: counters_hit="), std::string::npos);
    EXPECT_NE(out.find("oracle_failures: none"), std::string::npos);
}

#endif // XMIG_TOOLS_DIR

} // namespace
} // namespace xmig
