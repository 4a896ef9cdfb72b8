/**
 * @file
 * xmig-storm coverage layer: bucket math, surface read-back, the
 * site-causality table, guided-campaign determinism, and the A/B
 * proof that guidance beats uniform sampling at equal budget.
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/campaign.hpp"
#include "fuzz/coverage.hpp"
#include "fuzz/coverage_generator.hpp"
#include "multicore/machine.hpp"
#include "sim/runner/job_pool.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

namespace {

/**
 * The fixed A/B configuration: seed and budget chosen (and verified
 * by this test, forever) such that the uniform campaign leaves a
 * solid margin of recovery/injection counters unlit. Both arms are
 * deterministic, so the comparison cannot flake — it can only break
 * when someone changes the generators, which is exactly when it
 * should speak up.
 */
constexpr uint64_t kAbSeed = 3;

CampaignConfig
abConfig()
{
    CampaignConfig config;
    config.plans = 16;
    config.instructions = 40'000;
    config.minimize = false;
    return config;
}

/** A guided campaign drawn from `seed` over `workloadPool`. */
CampaignResult
runGuided(const CampaignConfig &config, const PropertyHarness &harness,
          unsigned jobs, std::vector<std::string> workloadPool = {})
{
    CoverageGuidedGenerator source(kAbSeed, std::move(workloadPool));
    return runCampaign(config, source, harness, JobPool(jobs));
}

/** The uniform reference campaign at the same seed. */
CampaignResult
runUniform(const CampaignConfig &config, const PropertyHarness &harness,
           unsigned jobs)
{
    UniformSource source(kAbSeed);
    return runCampaign(config, source, harness, JobPool(jobs));
}

} // namespace

TEST(CoverageMap, BucketIsLog2Magnitude)
{
    EXPECT_EQ(CoverageMap::bucketOf(0), 0u);
    EXPECT_EQ(CoverageMap::bucketOf(1), 1u);
    EXPECT_EQ(CoverageMap::bucketOf(2), 2u);
    EXPECT_EQ(CoverageMap::bucketOf(3), 2u);
    EXPECT_EQ(CoverageMap::bucketOf(4), 3u);
    EXPECT_EQ(CoverageMap::bucketOf(255), 8u);
    EXPECT_EQ(CoverageMap::bucketOf(256), 9u);
    EXPECT_EQ(CoverageMap::bucketOf(~uint64_t{0}), 64u);
}

TEST(CoverageMap, ObserveCountsNovelFeaturesOnly)
{
    CoverageMap map;
    // First sight: counter "a" at bucket 2 => 2 features (buckets 1
    // and 2); counter "b" unlit => 0 features but joins the universe.
    EXPECT_EQ(map.observe({{"a", 3}, {"b", 0}}), 2u);
    EXPECT_EQ(map.countersTotal(), 2u);
    EXPECT_EQ(map.countersHit(), 1u);
    EXPECT_EQ(map.bucketsHit(), 2u);

    // Same magnitudes teach nothing.
    EXPECT_EQ(map.observe({{"a", 2}, {"b", 0}}), 0u);

    // "a" jumps two buckets, "b" lights up: 3 novel features.
    EXPECT_EQ(map.observe({{"a", 12}, {"b", 1}}), 3u);
    EXPECT_EQ(map.countersHit(), 2u);
    EXPECT_EQ(map.maxBucketOf("a"), 4u);
    EXPECT_TRUE(map.hit("b"));
    EXPECT_FALSE(map.hit("unknown"));
}

TEST(CoverageMap, ReportNamesTheMisses)
{
    CoverageMap map;
    map.observe({{"zulu", 5}, {"alpha", 0}, {"mike", 0}});
    EXPECT_EQ(map.reportLine(),
              "coverage: counters_hit=1/3 buckets_hit=3");
    const std::string report = map.report();
    EXPECT_NE(report.find("  MISS alpha\n"), std::string::npos);
    EXPECT_NE(report.find("  MISS mike\n"), std::string::npos);
    EXPECT_EQ(report.find("MISS zulu"), std::string::npos);
    // Misses are name-sorted.
    EXPECT_LT(report.find("MISS alpha"), report.find("MISS mike"));
}

TEST(Coverage, CollectReadsTheRecoverySurface)
{
    MachineConfig config;
    config.faultPlan = "seed=5;at=1000:core_off=2;at=9000:core_on=2";
    MigrationMachine m(config);
    RefRecorder recorder;
    makeWorkload("181.mcf")->run(recorder, 20'000, 11);
    for (const MemRef &ref : recorder.refs())
        m.access(ref);

    const std::vector<CoveragePoint> points = collectCoverage(m);
    ASSERT_FALSE(points.empty());

    // Name-sorted, and confined to the coverage surface.
    for (size_t i = 1; i < points.size(); ++i)
        EXPECT_LT(points[i - 1].path, points[i].path);
    const auto valueOf = [&](const std::string &path) -> int64_t {
        for (const CoveragePoint &p : points) {
            if (p.path == path)
                return static_cast<int64_t>(p.value);
        }
        return -1;
    };
    // The scheduled churn pair must show up in both the injection
    // and the recovery counters.
    EXPECT_EQ(valueOf("machine.faults.injected.core_off"), 1);
    EXPECT_EQ(valueOf("machine.faults.injected.core_on"), 1);
    EXPECT_EQ(valueOf("machine.controller.recovery.cores_lost"), 1);
    EXPECT_EQ(valueOf("machine.controller.recovery.cores_joined"), 1);
    // Non-surface counters (hit-path stats) must not leak in.
    for (const CoveragePoint &p : points)
        EXPECT_EQ(p.path.find(".store.lookups"), std::string::npos)
            << p.path;
}

TEST(CoverageGenerator, SiteTableMapsCountersToActuators)
{
    using CGG = CoverageGuidedGenerator;
    const auto only = [](const std::vector<FaultSite> &v, FaultSite s) {
        return v.size() == 1 && v[0] == s;
    };
    EXPECT_TRUE(only(CGG::sitesFor("machine.faults.injected.oe"),
                     FaultSite::OeEntry));
    EXPECT_TRUE(only(CGG::sitesFor("machine.faults.injected.mig_drop"),
                     FaultSite::MigDrop));
    EXPECT_TRUE(
        only(CGG::sitesFor("machine.controller.recovery.mig_timeouts"),
             FaultSite::MigDrop));
    EXPECT_TRUE(
        only(CGG::sitesFor("machine.controller.recovery.store_drops"),
             FaultSite::CacheTag));
    EXPECT_TRUE(only(CGG::sitesFor("machine.bus_drops"),
                     FaultSite::BusDrop));
    // Rejoin-side counters need the off/on pair.
    const auto joined =
        CGG::sitesFor("machine.controller.recovery.cores_joined");
    EXPECT_EQ(joined.size(), 2u);
    // Watchdog counters have no actuator.
    EXPECT_TRUE(
        CGG::sitesFor("machine.controller.watchdog.trips").empty());
}

TEST(CoverageGenerator, SameSeedSameCaseSequence)
{
    const std::vector<std::string> pool = {"storm.phase", "181.mcf"};
    CoverageGuidedGenerator g1(99, pool);
    CoverageGuidedGenerator g2(99, pool);
    CoverageMap coverage;
    for (int i = 0; i < 20; ++i) {
        const FuzzCase c1 = g1.next("181.mcf", 10'000, coverage);
        const FuzzCase c2 = g2.next("181.mcf", 10'000, coverage);
        EXPECT_EQ(c1.plan, c2.plan);
        EXPECT_EQ(c1.benchmark, c2.benchmark);
        EXPECT_EQ(c1.workloadSeed, c2.workloadSeed);
        // Identical feedback keeps them in lockstep.
        if (coverage.observe({{"machine.bus_drops", uint64_t(i)}}) > 0) {
            g1.admit(c1);
            g2.admit(c2);
        }
    }
}

TEST(GuidedCampaign, ByteIdenticalAcrossJobs)
{
    const CampaignConfig config = abConfig();
    const std::vector<std::string> pool = {"storm.unsplit", "181.mcf"};
    const PropertyHarness harness;
    const std::string s1 = runGuided(config, harness, 1, pool).summary();
    const std::string s2 = runGuided(config, harness, 2, pool).summary();
    const std::string s4 = runGuided(config, harness, 4, pool).summary();
    EXPECT_EQ(s1, s2);
    EXPECT_EQ(s1, s4);
    EXPECT_NE(s1.find("coverage: counters_hit="), std::string::npos);
}

/**
 * The xmig-storm acceptance proof: at equal case budget and fixed
 * seed, the guided campaign lights up strictly more of the
 * recovery/injection counter surface than the uniform one — both
 * with guidance alone and with the adversarial workload pool
 * paired in.
 */
TEST(GuidedCampaign, BeatsUniformCoverageAtEqualBudget)
{
    const CampaignConfig config = abConfig();
    const PropertyHarness harness;

    const CampaignResult uniform = runUniform(config, harness, 4);

    // No workload pool: guidance alone.
    const CampaignResult guided = runGuided(config, harness, 4);

    std::vector<std::string> storm = adversarialWorkloadNames();
    storm.push_back(config.benchmark);
    const CampaignResult stormed = runGuided(config, harness, 4, storm);

    // Both campaigns observed the same counter universe.
    ASSERT_EQ(uniform.coverage.countersTotal(),
              guided.coverage.countersTotal());

    EXPECT_GT(guided.coverage.countersHit(),
              uniform.coverage.countersHit())
        << "uniform: " << uniform.coverage.report()
        << "guided: " << guided.coverage.report();
    EXPECT_GT(guided.coverage.bucketsHit(),
              uniform.coverage.bucketsHit());
    EXPECT_GT(stormed.coverage.countersHit(),
              uniform.coverage.countersHit())
        << "uniform: " << uniform.coverage.report()
        << "stormed: " << stormed.coverage.report();
}

TEST(Campaign, SummaryReportsOracleCountsAndCoverage)
{
    // The broken test-only oracle gives deterministic failures to
    // count (same seed as test_fuzz_campaign's pipeline test).
    CampaignConfig config;
    config.plans = 20;
    config.instructions = 25'000;
    config.minimize = false;

    HarnessConfig hc;
    hc.brokenOracle = true;
    const PropertyHarness harness(hc);
    const CampaignResult r = runUniform(config, harness, 2);
    ASSERT_FALSE(r.failures.empty());

    const auto counts = r.oracleCounts();
    ASSERT_EQ(counts.size(), 1u);
    EXPECT_EQ(counts[0].first, "broken_self_test");
    EXPECT_EQ(counts[0].second, r.failures.size());

    const std::string summary = r.summary();
    EXPECT_NE(summary.find("oracle_failures: broken_self_test=" +
                           std::to_string(r.failures.size())),
              std::string::npos);
    EXPECT_NE(summary.find("coverage: counters_hit="),
              std::string::npos);

    // A clean campaign says so.
    const PropertyHarness clean;
    const std::string ok = runUniform(config, clean, 2).summary();
    EXPECT_NE(ok.find("oracle_failures: none"), std::string::npos);
}
