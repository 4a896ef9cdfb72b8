#include "sim/quadcore.hpp"

#include "obs/prof.hpp"
#include "sim/observe.hpp"
#include "workloads/registry.hpp"

namespace xmig {

namespace {

/**
 * Feeds both machines in K-reference accessBatch() chunks and zeroes
 * their counters once the warm-up instruction budget has retired.
 * Buffering stops early at every time-series sample instant, and a
 * flush splits its chunk right after the instruction fetch that
 * retires the budget, so the reset and each row land on their exact
 * reference: accessBatch() leaves the counters, the L1 state and the
 * journal clock at their per-reference values at chunk end. The
 * observatory may be null. The caller must flush() after the
 * workload ends.
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
          done_(warmup_instructions == 0)
    {
        cutAt_ = chunkLimit();
    }

    void
    access(const MemRef &ref) override
    {
        buf_[count_++] = ref;
        if (count_ == cutAt_)
            flush();
    }

    /**
     * Drive the buffered references through both machines — zeroing
     * their counters right after the fetch that retires the warm-up
     * budget, if it is among them — then advance the sampling clock.
     */
    void
    flush()
    {
        if (count_ == 0)
            return;
        const size_t warm = done_ ? 0 : warmupRefs();
        if (warm > 0) {
            drive(buf_, warm);
            baseline_.resetStats();
            migration_.resetStats();
            if (observatory_)
                observatory_->onStatsReset();
        }
        drive(buf_ + warm, count_ - warm);
        if (observatory_)
            observatory_->onReferences(count_);
        count_ = 0;
        cutAt_ = chunkLimit();
    }

  private:
    void
    drive(const MemRef *refs, size_t n)
    {
        baseline_.accessBatch(refs, n);
        migration_.accessBatch(refs, n);
    }

    /**
     * Count the buffer's instruction fetches against the warm-up
     * budget. Returns the number of references up to and including
     * the fetch that retires it, or 0 while it has not retired.
     */
    size_t
    warmupRefs()
    {
        for (size_t i = 0; i < count_; ++i) {
            if (buf_[i].isIfetch() && ++instructions_ >= warmup_) {
                done_ = true;
                return i + 1;
            }
        }
        return 0;
    }

    /** Buffered references at which the next chunk is cut. */
    size_t
    chunkLimit() const
    {
        const uint64_t until_sample =
            observatory_ ? observatory_->refsUntilSample() : UINT64_MAX;
        return until_sample < MigrationMachine::kBatchRefs
            ? static_cast<size_t>(until_sample)
            : MigrationMachine::kBatchRefs;
    }

    MigrationMachine &baseline_;
    MigrationMachine &migration_;
    RunObservatory *observatory_;
    uint64_t warmup_;
    uint64_t instructions_ = 0;
    bool done_;
    MemRef buf_[MigrationMachine::kBatchRefs];
    size_t count_ = 0;
    size_t cutAt_;
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
        BatchFeedTee tee(baseline, migration, params.warmupInstructions,
                         observatory);
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
