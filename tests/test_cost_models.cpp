/**
 * @file
 * Unit tests for the update-bus bandwidth model (section 2.3) and the
 * migration cost model (sections 2.4, 4.2).
 */

#include <gtest/gtest.h>

#include "multicore/cost_model.hpp"
#include "multicore/update_bus.hpp"

namespace xmig {
namespace {

TEST(UpdateBus, PaperParametersGiveAbout45Bytes)
{
    // 4x(6+64) + 64 + 16 + 4x2 bits = 368 bits = 46 bytes; the paper
    // rounds to "approximately 45 bytes per cycle". The ids, values
    // and addresses are RetireProfile's constants.
    EXPECT_EQ(RetireProfile::kRegIdBits, 6u);
    EXPECT_EQ(RetireProfile::kValueBits, 64u);
    EXPECT_EQ(RetireProfile::kStoreAddrBits, 64u);
    EXPECT_EQ(RetireProfile::kBranchAddrBits, 16u);
    EXPECT_EQ(RetireProfile::kTypeBitsPerInstr, 2u);
    UpdateBusModel model;
    EXPECT_EQ(model.bitsPerCycle(), 368u);
    EXPECT_NEAR(model.bytesPerCycle(), 45.0, 1.5);
}

TEST(UpdateBus, ScalesWithRetireWidth)
{
    RetireProfile narrow;
    narrow.retireWidth = 1;
    RetireProfile wide;
    wide.retireWidth = 8;
    EXPECT_LT(UpdateBusModel(narrow).bitsPerCycle(),
              UpdateBusModel(wide).bitsPerCycle());
}

TEST(UpdateBus, PerInstructionAverageIsMonotonic)
{
    UpdateBusModel m;
    EXPECT_LT(m.bytesPerInstruction(0.0, 0.0, 0.0),
              m.bytesPerInstruction(0.3, 0.0, 0.0));
    EXPECT_LT(m.bytesPerInstruction(0.1, 0.1, 0.5),
              m.bytesPerInstruction(0.1, 0.1, 0.9));
    // An all-register-writing mix costs ~(2+6+64)/8 = 9 bytes.
    EXPECT_NEAR(m.bytesPerInstruction(0.0, 0.0, 1.0), 9.0, 0.1);
}

TEST(CostModel, BreakEvenMatchesPaperMcfArithmetic)
{
    // Section 4.2: mcf has a migration every 4500 instructions, an
    // L2 miss every 24 (baseline) and every 36 (with migration):
    // removed misses per migration = 4500/24 - 4500/36 = 62.5,
    // which the paper rounds to "approximately 60".
    MigrationTradeoff t;
    t.instructions = 1'000'000'000;
    t.l2MissesBaseline = t.instructions / 24;
    t.l2MissesMigration = t.instructions / 36;
    t.migrations = t.instructions / 4500;
    EXPECT_NEAR(breakEvenPmig(t), 62.5, 0.2);
}

TEST(CostModel, NoMigrationsMeansZeroBreakEven)
{
    MigrationTradeoff t;
    t.migrations = 0;
    t.l2MissesBaseline = 100;
    EXPECT_EQ(breakEvenPmig(t), 0.0);
}

TEST(CostModel, SpeedupCrossesOneAtBreakEven)
{
    MigrationTradeoff t;
    t.instructions = 10'000'000;
    t.l2MissesBaseline = 500'000;
    t.l2MissesMigration = 100'000;
    t.migrations = 10'000;
    const double breakeven = breakEvenPmig(t); // 40

    TimingParams below;
    below.pmig = breakeven - 1;
    EXPECT_GT(estimatedSpeedup(t, below), 1.0);

    TimingParams above;
    above.pmig = breakeven + 1;
    EXPECT_LT(estimatedSpeedup(t, above), 1.0);

    TimingParams at;
    at.pmig = breakeven;
    EXPECT_NEAR(estimatedSpeedup(t, at), 1.0, 1e-9);
}

TEST(CostModel, EstimatedCyclesComposition)
{
    TimingParams p;
    p.pmig = 10.0;
    EXPECT_EQ(estimatedCycles(1000, 10, 2, p),
              1000.0 + 200.0 + 400.0);
}

} // namespace
} // namespace xmig
