/**
 * @file
 * Migration-penalty cost model (sections 2.4 and 4.2).
 *
 * The paper deliberately avoids fixing the migration penalty P_mig
 * (expressed in units of one L2-miss/L3-hit penalty) and instead
 * reasons about the trade: a migration pays off when it removes more
 * than P_mig L2 misses. For 181.mcf it derives a break-even of
 * roughly 60. This model reproduces that arithmetic and extends it
 * to a simple stall-cycle performance estimate.
 */

#pragma once

#include <cstdint>

namespace xmig {

/** Inputs: event counts from a baseline and a migration run. */
struct MigrationTradeoff
{
    uint64_t instructions = 0;
    uint64_t l2MissesBaseline = 0;  ///< single-core L2 misses
    uint64_t l2MissesMigration = 0; ///< 4xL2 misses
    uint64_t migrations = 0;
};

/**
 * L2 misses removed per migration — the break-even P_mig.
 *
 * Execution migration wins whenever P_mig is below this value.
 * Returns +infinity (as a large number) when there were migrations
 * but no removed misses would make it negative; returns 0 when no
 * migrations occurred.
 */
inline double
breakEvenPmig(const MigrationTradeoff &t)
{
    if (t.migrations == 0)
        return 0.0;
    const double removed =
        static_cast<double>(t.l2MissesBaseline) -
        static_cast<double>(t.l2MissesMigration);
    return removed / static_cast<double>(t.migrations);
}

/** Latencies of the simple in-order stall model, in cycles. */
inline constexpr double kBaseCpi = 1.0;        ///< CPI with a perfect L2
inline constexpr double kL3HitCycles = 20.0;   ///< per L2-miss/L3-hit
inline constexpr double kMemoryCycles = 200.0; ///< per L3 miss (finite L3)
// xmig-iron recovery costs (OS/firmware path, not pipeline):
inline constexpr double kResplitCycles = 5000.0; ///< splitter rebuild
inline constexpr double kRetryCycles = 100.0; ///< migration timeout + retry

/** The one free parameter of the stall model. */
struct TimingParams
{
    double pmig = 10.0; ///< migration penalty, in L3-hit units
};

/** Estimated cycles for a run under the stall model. */
inline double
estimatedCycles(uint64_t instructions, uint64_t l2_misses,
                uint64_t migrations, const TimingParams &p)
{
    return kBaseCpi * static_cast<double>(instructions) +
           kL3HitCycles * static_cast<double>(l2_misses) +
           p.pmig * kL3HitCycles * static_cast<double>(migrations);
}

/**
 * Speedup of the migration machine over the baseline under the stall
 * model: >1 means execution migration helps.
 */
inline double
estimatedSpeedup(const MigrationTradeoff &t, const TimingParams &p)
{
    const double base =
        estimatedCycles(t.instructions, t.l2MissesBaseline, 0, p);
    const double mig =
        estimatedCycles(t.instructions, t.l2MissesMigration,
                        t.migrations, p);
    return base / mig;
}

} // namespace xmig
