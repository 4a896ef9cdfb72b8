/**
 * @file
 * xmig-forge campaigns: byte-stable collation across --jobs, and the
 * find -> minimize -> repro pipeline end to end (broken oracle).
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "fuzz/campaign.hpp"
#include "sim/runner/job_pool.hpp"

using namespace xmig;

namespace {

CampaignConfig
smallCampaign(uint64_t plans)
{
    CampaignConfig config;
    config.plans = plans;
    config.instructions = 25'000;
    return config;
}

/** A uniform campaign drawn from `seed`. */
CampaignResult
runUniform(uint64_t seed, const CampaignConfig &config,
           const PropertyHarness &harness, unsigned jobs)
{
    UniformSource source(seed);
    return runCampaign(config, source, harness, JobPool(jobs));
}

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return "";
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

constexpr uint64_t kBrokenSeed = 3;

} // namespace

TEST(Campaign, SummaryIsByteIdenticalAcrossJobs)
{
    const CampaignConfig config = smallCampaign(16);
    const PropertyHarness harness;
    const std::string s1 =
        runUniform(2026, config, harness, 1).summary();
    const std::string s2 =
        runUniform(2026, config, harness, 2).summary();
    const std::string s4 =
        runUniform(2026, config, harness, 4).summary();
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1, s4);
    EXPECT_NE(s1.find("cases=16"), std::string::npos);
}

TEST(Campaign, CleanCampaignHasNoFailures)
{
    const CampaignConfig config = smallCampaign(12);
    const PropertyHarness harness;
    const CampaignResult r = runUniform(7, config, harness, 2);
    EXPECT_EQ(r.cases, 12u);
    EXPECT_TRUE(r.failures.empty()) << r.summary();
    EXPECT_GT(r.refs, 0u);
}

TEST(Campaign, BrokenOracleCampaignMinimizesAndWritesRepro)
{
    // kBrokenSeed samples a batch with several plans targeting both
    // core_off and bus_drop — the broken oracle's trigger.
    CampaignConfig config = smallCampaign(20);
    config.reproDir = ::testing::TempDir();

    HarnessConfig hc;
    hc.brokenOracle = true;
    const PropertyHarness harness(hc);
    const CampaignResult r = runUniform(kBrokenSeed, config, harness, 2);
    ASSERT_FALSE(r.failures.empty())
        << "seed no longer samples a core_off+bus_drop plan; pick a "
           "new kBrokenSeed";

    const CampaignFailure &f = r.failures.front();
    EXPECT_EQ(f.failure.oracle, "broken_self_test");
    EXPECT_NE(f.minimized.plan, f.original.plan);
    EXPECT_FALSE(f.reproPath.empty());

    const std::string repro = slurp(f.reproPath);
    EXPECT_NE(repro.find("plan=" + f.minimized.plan),
              std::string::npos);
    EXPECT_NE(repro.find("oracle=broken_self_test"),
              std::string::npos);
    EXPECT_NE(repro.find("workload_seed="), std::string::npos);
    EXPECT_NE(repro.find("--replay"), std::string::npos);

    // The summary names the repro and the minimized statement count.
    EXPECT_NE(r.summary().find("oracle=broken_self_test"),
              std::string::npos);
}

TEST(Campaign, MinimizationCanBeDisabled)
{
    CampaignConfig config = smallCampaign(20);
    config.minimize = false;

    HarnessConfig hc;
    hc.brokenOracle = true;
    const PropertyHarness harness(hc);
    const CampaignResult r = runUniform(kBrokenSeed, config, harness, 2);
    ASSERT_FALSE(r.failures.empty());
    EXPECT_EQ(r.failures.front().minimized.plan,
              r.failures.front().original.plan);
    EXPECT_EQ(r.failures.front().probes, 0u);
}

TEST(Campaign, ReproFilesAreDeterministic)
{
    HarnessConfig hc;
    hc.brokenOracle = true;
    const PropertyHarness harness(hc);

    CampaignConfig config = smallCampaign(20);
    config.reproDir = ::testing::TempDir();
    const CampaignResult r1 = runUniform(kBrokenSeed, config, harness, 1);
    const CampaignResult r2 = runUniform(kBrokenSeed, config, harness, 4);
    ASSERT_FALSE(r1.failures.empty());
    ASSERT_EQ(r1.failures.size(), r2.failures.size());
    EXPECT_EQ(slurp(r1.failures.front().reproPath),
              slurp(r2.failures.front().reproPath));
    EXPECT_EQ(r1.summary(), r2.summary());

    // The repro body is a stable format: case 0's, byte for byte.
    ASSERT_EQ(r1.failures.front().caseIndex, 0u);
    EXPECT_EQ(slurp(r1.failures.front().reproPath),
              "# xmig-forge minimized repro (case 0)\n"
              "# replay: xmig_fuzz --replay "
              "'at=0:bus_drop;at=0:core_off=1' "
              "--workload-seed 9000725922818581354 "
              "--bench 181.mcf --instr 25000\n"
              "plan=at=0:bus_drop;at=0:core_off=1\n"
              "benchmark=181.mcf\n"
              "workload_seed=9000725922818581354\n"
              "instructions=25000\n"
              "statements=2\n"
              "oracle=broken_self_test\n"
              "original_plan=seed=6370013938770462304;"
              "at=376914:flip=delta;"
              "rate=1.9930587363219417e-05:mig_drop;"
              "at=376914:flip=delta;rate=1e-18:flip=ar;"
              "at=4816:bus_drop;"
              "rate=3.359875109266261e-05:flip=tag;"
              "at=152746:core_off=1;at=179208:core_on=1\n"
              "detail=plan targets both core_off and bus_drop\n");
}
