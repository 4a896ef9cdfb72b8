/**
 * @file
 * Migration-protocol timing (sections 2.2 and 2.4).
 *
 * The paper never fixes the migration penalty P_mig; it defines it
 * operationally: the cycles between the retirement of the transition
 * instruction T on the old core X1 and the retirement of T's
 * successor on the new core X2, which "corresponds to the number of
 * cycles for broadcasting T on the update bus plus the number of
 * pipeline stages from the issue stage to retirement". Section 2.2
 * adds the drain protocol: after the migration interrupt, X1 stops
 * fetching and drains; a branch mispredict during the drain flushes
 * the younger instructions, moves the transition point to the
 * mispredicted branch, and restarts X2's fetch.
 *
 * This module provides:
 *  - MigrationProtocolModel: a small event model of one migration,
 *    with mispredict re-steers, yielding penalty cycles (expected
 *    value analytically, per-event by simulation);
 *  - TimingModel: stall-cycle accounting that turns MachineStats
 *    into cycles/IPC, expressing the protocol penalty in the paper's
 *    P_mig units (L2-miss/L3-hit penalties).
 */

#pragma once

#include <cstdint>

#include "multicore/cost_model.hpp"
#include "multicore/machine.hpp" // MachineStats
#include "util/rng.hpp"

namespace xmig {

/** Pipeline and bus parameters of one core (section 2.2 / 2.3). */
struct PipelineParams
{
    /** Stages between issue and retirement (the paper's penalty term). */
    unsigned issueToRetireStages = 10;
    /** Stages between fetch and issue (drain length contribution). */
    unsigned fetchToIssueStages = 5;
    /** Instructions retired (and drained) per cycle. */
    unsigned retireWidth = 4;
    /** Cycles to broadcast one retired instruction on the update bus. */
    unsigned updateBusCycles = 2;
    /** Per-instruction probability of a branch mispredict re-steer. */
    double mispredictPerInstr = 0.01;
};

/**
 * Event model of a single execution migration (section 2.2).
 */
class MigrationProtocolModel
{
  public:
    explicit MigrationProtocolModel(const PipelineParams &params = {})
        : params_(params)
    {
    }

    /** Instructions in flight on X1 when the interrupt arrives. */
    unsigned
    inflightInstructions() const
    {
        return (params_.fetchToIssueStages +
                params_.issueToRetireStages) *
               params_.retireWidth;
    }

    /**
     * Paper definition, no mispredicts: cycles from T's retirement
     * on X1 to its successor's retirement on X2 = update-bus
     * broadcast of T + issue-to-retire depth (X2 fetched and decoded
     * behind the blocked issue stage during the drain).
     */
    unsigned
    basePenaltyCycles() const
    {
        return params_.updateBusCycles + params_.issueToRetireStages;
    }

    /**
     * Simulate one migration, drawing mispredicts among the drained
     * instructions. A mispredict at drain position k flushes X1
     * beyond k, makes the branch the new transition point, and
     * restarts X2's fetch, which adds the cycles X2 had already
     * spent fetching past the old transition PC.
     */
    uint64_t simulateMigration(Rng &rng) const;

    /** Mean of simulateMigration over `samples` draws. */
    double expectedPenaltyCycles(uint64_t samples = 20'000,
                                 uint64_t seed = 1) const;

    const PipelineParams &params() const { return params_; }

  private:
    PipelineParams params_;
};

/**
 * Turns machine event counts into estimated cycles / IPC, with the
 * latencies of cost_model.hpp.
 */
class TimingModel
{
  public:
    explicit TimingModel(const PipelineParams &pipeline = {})
        : protocol_(pipeline),
          penaltyCycles_(protocol_.expectedPenaltyCycles())
    {
    }

    /** Migration penalty in cycles (expected, with mispredicts). */
    double migrationPenaltyCycles() const { return penaltyCycles_; }

    /** The protocol's penalty expressed in P_mig units (L3 hits). */
    double
    pmig() const
    {
        return migrationPenaltyCycles() / kL3HitCycles;
    }

    /** Estimated execution cycles for a machine run. */
    double
    cycles(const MachineStats &stats) const
    {
        // An L2 hit is folded into the base CPI. With a perfect L3
        // (l3Accesses == 0) every L2 miss costs an L3 hit; in
        // finite-L3 mode, L3 misses add memory latency.
        double c = kBaseCpi * static_cast<double>(stats.instructions);
        c += kL3HitCycles * static_cast<double>(stats.l2Misses);
        c += kMemoryCycles * static_cast<double>(stats.l3Misses);
        c += migrationPenaltyCycles() *
             static_cast<double>(stats.migrations);
        return c;
    }

    /**
     * cycles() plus the recovery overheads a degraded run pays:
     * splitter rebuilds after core churn and migration-fabric
     * timeouts (xmig-iron; see RecoveryStats).
     */
    double
    cyclesWithRecovery(const MachineStats &stats,
                       const RecoveryStats &recovery) const
    {
        double c = cycles(stats);
        c += kResplitCycles * static_cast<double>(recovery.resplits);
        c += kRetryCycles * static_cast<double>(recovery.migTimeouts);
        return c;
    }

    /** Instructions per cycle under the stall model. */
    double
    ipc(const MachineStats &stats) const
    {
        const double c = cycles(stats);
        return c == 0.0 ? 0.0
                        : static_cast<double>(stats.instructions) / c;
    }

    /** Speedup of `migration` over `baseline` (same instructions). */
    double
    speedup(const MachineStats &baseline,
            const MachineStats &migration) const
    {
        return cycles(baseline) / cycles(migration);
    }

    const MigrationProtocolModel &protocol() const { return protocol_; }

  private:
    MigrationProtocolModel protocol_;
    /** Computed once, so a model shared across threads is read-only. */
    double penaltyCycles_;
};

} // namespace xmig
