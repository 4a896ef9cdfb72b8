#include "sim/quadcore.hpp"

#include "multicore/feed.hpp"
#include "obs/prof.hpp"
#include "sim/observe.hpp"
#include "workloads/registry.hpp"

namespace xmig {

QuadcoreRow
runQuadcore(const std::string &benchmark, const QuadcoreParams &params,
            RunObservatory *observatory)
{
    XMIG_PROF_SCOPE("runQuadcore");
    auto workload = makeWorkload(benchmark);

    MachineConfig base_cfg = params.machine;
    base_cfg.numCores = 1;
    // The fault plan targets the migration machine only: the baseline
    // must stay a clean reference (and a single-core machine would
    // just warn the plan away).
    base_cfg.faultPlan.clear();
    MigrationMachine baseline(base_cfg);

    MachineConfig mig_cfg = params.machine;
    MigrationMachine migration(mig_cfg);

    if (observatory) {
        observatory->attachMachine(baseline, "baseline",
                                   /*sampled=*/false);
        observatory->attachMachine(migration, "machine",
                                   /*sampled=*/true);
    }

    {
        XMIG_PROF_SCOPE("feed");
        const uint64_t total = params.warmupInstructions +
                               params.instructionsPerBenchmark;
        // One stream drives both machines; their counters restart at
        // the fetch that retires the warm-up, and the observatory
        // reads a sample row at every instant its cadence names.
        ChunkFeed feed({&baseline, &migration}, {},
                       params.warmupInstructions, observatory);
        feed.run(*workload, total, params.seed);
    }

    // finish() registers the two machines above, so it has to run
    // before this frame unwinds.
    if (observatory)
        observatory->finish();

    QuadcoreRow row;
    row.name = workload->info().name;
    row.suite = workload->info().suite;
    row.instructions = migration.stats().instructions;
    row.l1Misses = migration.stats().l1Misses;
    row.l2MissesBaseline = baseline.stats().l2Misses;
    row.l2Misses4x = migration.stats().l2Misses;
    row.migrations = migration.stats().migrations;
    row.l2ToL2Forwards = migration.stats().l2ToL2Forwards;
    return row;
}

} // namespace xmig
