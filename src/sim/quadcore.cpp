#include "sim/quadcore.hpp"

#include "obs/prof.hpp"
#include "sim/observe.hpp"
#include "workloads/registry.hpp"

namespace xmig {

namespace {

/**
 * Feeds both machines and zeroes their counters once the warm-up
 * instruction budget has retired. Warm-up runs one reference at a
 * time, so the reset lands at the exact reference that retires the
 * budget; after it, references are buffered and driven through
 * accessBatch() in K-reference chunks. The caller passes an
 * observatory only while it samples; then every reference
 * stays on the per-reference branch and ticks the sampling clock.
 * The caller must flush() after the workload ends.
 */
class BatchFeedTee final : public RefSink
{
  public:
    BatchFeedTee(MigrationMachine &baseline, MigrationMachine &migration,
                 uint64_t warmup_instructions,
                 RunObservatory *observatory)
        : baseline_(baseline),
          migration_(migration),
          observatory_(observatory),
          warmup_(warmup_instructions),
          done_(warmup_instructions == 0),
          perRef_(!done_ || observatory != nullptr)
    {
    }

    void
    access(const MemRef &ref) override
    {
        if (perRef_) {
            accessOne(ref);
            return;
        }
        buf_[count_++] = ref;
        if (count_ == MigrationMachine::kBatchRefs)
            flush();
    }

    void
    flush()
    {
        if (count_ == 0)
            return;
        baseline_.accessBatch(buf_, count_);
        migration_.accessBatch(buf_, count_);
        count_ = 0;
    }

  private:
    void
    accessOne(const MemRef &ref)
    {
        baseline_.access(ref);
        migration_.access(ref);
        if (!done_ && ref.isIfetch() && ++instructions_ >= warmup_) {
            baseline_.resetStats();
            migration_.resetStats();
            done_ = true;
            perRef_ = observatory_ != nullptr;
            if (observatory_)
                observatory_->onStatsReset();
        }
        if (observatory_)
            observatory_->onReference();
    }

    MigrationMachine &baseline_;
    MigrationMachine &migration_;
    RunObservatory *observatory_;
    uint64_t warmup_;
    uint64_t instructions_ = 0;
    bool done_;
    bool perRef_; ///< warm-up still running, or observatory sampling
    MemRef buf_[MigrationMachine::kBatchRefs];
    size_t count_ = 0;
};

} // namespace

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
        // The sampling cadence is defined over single references, so
        // the tee stays per-reference while sampling (observe.hpp).
        // The journal is batch-exact: accessBatch() stamps every
        // event with its exact reference count.
        const bool sampling = observatory && observatory->samplingActive();
        BatchFeedTee tee(baseline, migration, params.warmupInstructions,
                         sampling ? observatory : nullptr);
        workload->run(tee, total, params.seed);
        tee.flush();
    }

    // Registered pointers reach into the two machines above, so every
    // export has to happen before this frame unwinds.
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
