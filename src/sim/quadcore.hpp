/**
 * @file
 * Table 2 experiment: 4-core machine with 512-KB L2 caches.
 *
 * Per section 4.2: 16-KB 4-way L1s (write-through non-write-allocate
 * DL1), 512-KB 4-way skewed-associative write-back L2 per core, 8k-
 * entry 4-way skewed affinity cache with 25 % working-set sampling,
 * 18-bit transition filters, |R_X| = 128, |R_Y| = 64, L2 filtering.
 *
 * Each benchmark is run simultaneously through a baseline single-core
 * machine (for the "L2 miss" column) and the 4-core migration machine
 * (for "4xL2 miss" and "migration"); Table 2 reports instructions per
 * event plus the L2-miss ratio.
 */

#pragma once

#include <cstdint>
#include <string>

#include "multicore/machine.hpp"

namespace xmig {

class RunObservatory;

/** One Table 2 row (raw event counts). */
struct QuadcoreRow
{
    std::string name;
    std::string suite;
    uint64_t instructions = 0;
    uint64_t l1Misses = 0;
    uint64_t l2MissesBaseline = 0; ///< single 512-KB L2
    uint64_t l2Misses4x = 0;       ///< four L2s with migration
    uint64_t migrations = 0;
    uint64_t l2ToL2Forwards = 0;

    /** Table 2's "ratio" column: baseline misses / migration misses
     *  expressed via the instructions-per-miss quotient. < 1 means
     *  migration removed L2 misses. */
    double
    missRatio() const
    {
        if (l2MissesBaseline == 0)
            return l2Misses4x == 0 ? 1.0 : 99.0;
        return static_cast<double>(l2Misses4x) /
               static_cast<double>(l2MissesBaseline);
    }

    /** L2 misses removed per migration (break-even P_mig). */
    double
    removedMissesPerMigration() const
    {
        if (migrations == 0)
            return 0.0;
        return (static_cast<double>(l2MissesBaseline) -
                static_cast<double>(l2Misses4x)) /
               static_cast<double>(migrations);
    }
};

/** Parameters of a Table 2 run. */
struct QuadcoreParams
{
    uint64_t instructionsPerBenchmark = 20'000'000;

    /**
     * Instructions to run before counters start. The paper's
     * 1-billion-instruction runs make warm-up negligible; at this
     * library's budgets, excluding it brings the measured ratios
     * closer to steady state.
     */
    uint64_t warmupInstructions = 0;

    uint64_t seed = 42;
    MachineConfig machine; ///< defaults are the section 4.2 setup
};

/**
 * Run Table 2 for one benchmark.
 *
 * Both machines see the reference stream in K-reference
 * accessBatch() chunks. A chunk is cut short right after the
 * reference that retires the warm-up budget, where both machines'
 * counters are zeroed, and at every time-series sample instant, so
 * the reset and each sample land on their exact reference. An
 * optional observatory (sim/observe.hpp) is attached to both
 * machines — the baseline under `baseline.*`, the migration machine
 * under `machine.*` (also time-series sampled) — and finish()ed
 * before the machines are destroyed. Sampling changes only where
 * chunks are cut, so the results (journal and trace included) are
 * identical with or without it.
 */
QuadcoreRow runQuadcore(const std::string &benchmark,
                        const QuadcoreParams &params,
                        RunObservatory *observatory = nullptr);

} // namespace xmig
