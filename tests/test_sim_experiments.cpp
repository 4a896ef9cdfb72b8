/**
 * @file
 * Integration tests for the experiment drivers: Figure 3 snapshots,
 * Table 1 inventory, Figures 4/5 stack profiles, Table 2 quad-core.
 * These exercise the full pipeline workload -> L1 filter ->
 * controller/stacks/machine at reduced scale.
 */

#include <gtest/gtest.h>

#include "multicore/cost_model.hpp"
#include "sim/quadcore.hpp"
#include "sim/snapshot.hpp"
#include "sim/stack_profile.hpp"
#include "sim/table1.hpp"

namespace xmig {
namespace {

TEST(SnapshotExperiment, Figure3CircularShape)
{
    CircularStream s(4000);
    SnapshotParams p;
    const SnapshotResult r = runAffinitySnapshot(s, p); // t = 100k
    EXPECT_EQ(r.affinity.size(), 4000u);
    EXPECT_EQ(r.positive + r.negative, 4000u);
    EXPECT_GT(r.positive, 1200u);
    EXPECT_GT(r.negative, 1200u);
    EXPECT_LT(r.transitionFrequency, 0.01);
}

TEST(Table1Experiment, ProducesSaneCounts)
{
    Table1Params p;
    p.instructionsPerBenchmark = 400'000;
    const Table1Row row = runTable1("179.art", p);
    EXPECT_EQ(row.name, "179.art");
    EXPECT_EQ(row.suite, "SPEC2000");
    EXPECT_GE(row.instructions, 400'000u);
    EXPECT_GT(row.dl1Misses, 0u);
    EXPECT_LE(row.il1Misses, row.instructions);
    EXPECT_LE(row.dl1Misses, row.loads + row.stores);
}

TEST(StackProfileExperiment, ProfilesAreMonotoneNonIncreasing)
{
    StackProfileParams p;
    p.instructionsPerBenchmark = 1'500'000;
    const StackProfileResult r = runStackProfile("188.ammp", p);
    ASSERT_EQ(r.p1.size(), r.plotSizes.size());
    for (size_t i = 1; i < r.p1.size(); ++i) {
        EXPECT_LE(r.p1[i], r.p1[i - 1] + 1e-12);
        EXPECT_LE(r.p4[i], r.p4[i - 1] + 1e-12);
    }
    for (size_t i = 0; i < r.p1.size(); ++i) {
        EXPECT_GE(r.p1[i], 0.0);
        EXPECT_LE(r.p1[i], 1.0);
        EXPECT_GE(r.p4[i], 0.0);
        EXPECT_LE(r.p4[i], 1.0);
    }
    EXPECT_GT(r.stackAccesses, 0u);
}

TEST(StackProfileExperiment, SplittableBenchmarkShowsGap)
{
    StackProfileParams p;
    p.instructionsPerBenchmark = 4'000'000;
    const StackProfileResult art = runStackProfile("179.art", p);
    EXPECT_GT(art.maxGap(), 0.15) << "art must be splittable";
    const StackProfileResult gzip = runStackProfile("164.gzip", p);
    EXPECT_LT(gzip.maxGap(), 0.12) << "gzip must not be splittable";
    // Transition frequency stays low even on the random benchmark
    // (the transition filter's job).
    EXPECT_LT(gzip.transitionFrequency, 0.05);
}

TEST(QuadcoreExperiment, ArtWinsGzipDoesNot)
{
    QuadcoreParams p;
    p.instructionsPerBenchmark = 6'000'000;
    const QuadcoreRow art = runQuadcore("179.art", p);
    EXPECT_LT(art.missRatio(), 0.5);
    EXPECT_GT(art.migrations, 0u);
    EXPECT_GT(breakEvenPmig({art.instructions, art.l2MissesBaseline,
                             art.l2Misses4x, art.migrations}),
              10.0);

    const QuadcoreRow gzip = runQuadcore("164.gzip", p);
    EXPECT_GT(gzip.missRatio(), 0.9);
    EXPECT_LT(gzip.missRatio(), 1.15);
}

TEST(QuadcoreExperiment, CountsAreConsistent)
{
    QuadcoreParams p;
    p.instructionsPerBenchmark = 1'000'000;
    const QuadcoreRow r = runQuadcore("health", p);
    EXPECT_GE(r.instructions, 1'000'000u);
    EXPECT_GT(r.l1Misses, 0u);
    EXPECT_LE(r.l2MissesBaseline, r.l1Misses + r.instructions);
    EXPECT_GT(r.l2Misses4x, 0u);
}

} // namespace
} // namespace xmig
