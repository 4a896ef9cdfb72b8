/**
 * @file
 * xmig-scope run observatory: one-stop wiring of the observability
 * layer (obs/) onto a simulation run.
 *
 * A RunObservatory bundles the three pillars for a single run:
 *
 *  - a MetricsRegistry holding every machine/controller/store counter
 *    under hierarchical dotted names, snapshotted by finish() and
 *    exported as JSONL;
 *  - a TimeSeriesSampler probing the affinity state (A_R, Delta,
 *    filter value), event rates and per-core L2 occupancies every
 *    --sample-every references (exported as CSV);
 *  - an xmig-lens event Journal (obs/journal.hpp), attached to the
 *    sampled machine and exported at the end as JSONL (--journal-out)
 *    and/or as a Chrome trace_event document (--trace-out). The
 *    journal is per-machine state, so both files are byte-identical
 *    at any --jobs value (docs/observability.md, "Journal").
 *
 * The observatory reads what to observe and where to write it
 * straight from the parsed command line (BenchOptions: an empty path
 * leaves that output off).
 *
 * finish() registers the attached machines (a value snapshot, see
 * obs/registry.hpp), so it must run while they still exist;
 * runQuadcore() calls it before returning when handed an
 * observatory. The registry stays readable afterwards.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "multicore/feed.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "sim/options.hpp"

namespace xmig::obs {
class Journal;
} // namespace xmig::obs

namespace xmig {

/**
 * All observability state for one simulation run. It is the FeedOwner
 * of the run's ChunkFeed, which cuts a chunk at every sample instant.
 */
class RunObservatory final : public FeedOwner
{
  public:
    /**
     * Observe per `options`' xmig-scope flags. --sample-every 0 (the
     * flag's default) keeps the sampler's own cadence,
     * obs::SamplerConfig::kDefaultSampleEvery references.
     */
    explicit RunObservatory(const BenchOptions &options);
    ~RunObservatory() override;

    RunObservatory(const RunObservatory &) = delete;
    RunObservatory &operator=(const RunObservatory &) = delete;

    /**
     * Remember `machine`, whose full counter tree finish() registers
     * under `prefix`. With `sampled` true (at most one machine per
     * observatory), also install the standard time-series columns —
     * A_R, Delta, filter value, active core, per-interval event
     * rates, and per-core L2 occupancies plus their spread — and
     * attach the event journal (when --journal-out or --trace-out
     * asked for one) to the machine.
     */
    void attachMachine(MigrationMachine &machine,
                       const std::string &prefix, bool sampled);

    /** References until the next time-series row comes due (>= 1);
     *  UINT64_MAX when this observatory does not sample. The feed
     *  cuts its chunk there, so each row lands on exactly the
     *  reference its cadence names. */
    uint64_t
    refsUntilEvent() const override
    {
        return sampling_ ? sampler_.ticksUntilSample() : UINT64_MAX;
    }

    /** The attached machines' counters were just zeroed (warm-up). */
    void
    onStatsReset() override
    {
        if (sampling_)
            sampler_.rebaseDeltas();
    }

    /** Advance sampling time by `n` memory references. */
    void
    onChunk(size_t n) override
    {
        if (sampling_)
            sampler_.tick(n);
    }

    /**
     * Register every attached machine's counters, then export
     * everything that was requested: JSONL metrics, CSV time series,
     * and the journal as JSONL and/or Chrome trace. Must run while
     * every attached machine is still alive. Idempotent.
     */
    void finish();

    /** The metrics snapshot; empty until finish(). */
    const obs::MetricsRegistry &registry() const { return registry_; }
    obs::TimeSeriesSampler &sampler() { return sampler_; }
    const BenchOptions &options() const { return options_; }

    /** The event journal (null unless --journal-out or --trace-out
     *  requested one). */
    obs::Journal *journal() { return journal_.get(); }

  private:
    struct Attached
    {
        const MigrationMachine *machine;
        std::string prefix;
    };

    BenchOptions options_;
    std::vector<Attached> attached_;
    obs::MetricsRegistry registry_;
    obs::TimeSeriesSampler sampler_;
    std::unique_ptr<obs::Journal> journal_;
    bool sampling_ = false;
    bool finished_ = false;
};

} // namespace xmig
