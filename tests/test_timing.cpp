/**
 * @file
 * Tests for the migration-protocol timing model (sections 2.2, 2.4).
 */

#include <gtest/gtest.h>

#include "multicore/timing.hpp"

namespace xmig {
namespace {

TEST(MigrationProtocol, BasePenaltyIsBroadcastPlusPipeline)
{
    // The paper: "the migration penalty corresponds to the number of
    // cycles for broadcasting T on the update bus plus the number of
    // pipeline stages from the issue stage to retirement."
    PipelineParams p;
    p.updateBusCycles = 2;
    p.issueToRetireStages = 10;
    MigrationProtocolModel model(p);
    EXPECT_EQ(model.basePenaltyCycles(), 12u);
}

TEST(MigrationProtocol, NoMispredictsMeansBasePenalty)
{
    PipelineParams p;
    p.mispredictPerInstr = 0.0;
    MigrationProtocolModel model(p);
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(model.simulateMigration(rng),
                  model.basePenaltyCycles());
    EXPECT_DOUBLE_EQ(model.expectedPenaltyCycles(100),
                     model.basePenaltyCycles());
}

TEST(MigrationProtocol, MispredictsAddResteerCycles)
{
    PipelineParams p;
    p.mispredictPerInstr = 0.5; // mispredicts almost guaranteed
    MigrationProtocolModel model(p);
    EXPECT_GT(model.expectedPenaltyCycles(5000),
              model.basePenaltyCycles());
    // At most one re-steer per migration (the drain ends there).
    PipelineParams q = p;
    q.mispredictPerInstr = 1.0;
    MigrationProtocolModel certain(q);
    Rng rng(2);
    EXPECT_EQ(certain.simulateMigration(rng),
              certain.basePenaltyCycles() + q.updateBusCycles);
}

TEST(MigrationProtocol, InflightScalesWithDepthAndWidth)
{
    PipelineParams p;
    p.fetchToIssueStages = 5;
    p.issueToRetireStages = 10;
    p.retireWidth = 4;
    MigrationProtocolModel model(p);
    EXPECT_EQ(model.inflightInstructions(), 60u);
}

TEST(TimingModel, PmigInPaperUnits)
{
    PipelineParams p;
    p.updateBusCycles = 2;
    p.issueToRetireStages = 10;
    p.mispredictPerInstr = 0.0;
    TimingModel model(p);
    // 12 cycles / 20 cycles-per-L3-hit = 0.6 P_mig units: a cheap
    // migration, comfortably below every measured break-even.
    EXPECT_NEAR(model.pmig(), 0.6, 1e-9);
}

TEST(TimingModel, CyclesDecomposition)
{
    PipelineParams p;
    p.mispredictPerInstr = 0.0; // penalty = 12 cycles exactly
    TimingModel model(p);

    MachineStats s;
    s.instructions = 1000;
    s.l2Accesses = 100;
    s.l2Misses = 10;
    s.l3Misses = 2;
    s.migrations = 5;
    EXPECT_DOUBLE_EQ(model.cycles(s),
                     1000.0 + 20.0 * 10 + 200.0 * 2 + 12.0 * 5);
    EXPECT_NEAR(model.ipc(s), 1000.0 / 1660.0, 1e-12);
}

TEST(TimingModel, SpeedupFavorsFewerMisses)
{
    TimingModel model;
    MachineStats base, mig;
    base.instructions = mig.instructions = 1'000'000;
    base.l2Misses = 50'000;
    mig.l2Misses = 5'000;
    mig.migrations = 200;
    EXPECT_GT(model.speedup(base, mig), 1.5);
}

} // namespace
} // namespace xmig
