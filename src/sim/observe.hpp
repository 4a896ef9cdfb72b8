/**
 * @file
 * xmig-scope run observatory: one-stop wiring of the observability
 * layer (obs/) onto a simulation run.
 *
 * A RunObservatory bundles the three pillars for a single run:
 *
 *  - a MetricsRegistry holding every machine/controller/store counter
 *    under hierarchical dotted names (exported as JSONL at the end);
 *  - a TimeSeriesSampler probing the affinity state (A_R, Delta,
 *    filter value), event rates and per-core L2 occupancies every
 *    `sampleEvery` references (exported as CSV);
 *  - an xmig-lens event Journal (obs/journal.hpp), attached to the
 *    sampled machine and exported at the end as JSONL (--journal-out)
 *    and/or as a Chrome trace_event document (--trace-out). The
 *    journal is per-machine state, so both files are byte-identical
 *    at any --jobs value (docs/observability.md, "Journal").
 *
 * Lifetime rule (see obs/registry.hpp): registered pointers reach
 * into the live machines, so finish() must run while the machines
 * still exist. runQuadcore() calls finish() before returning when
 * handed an observatory.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "obs/registry.hpp"
#include "obs/sampler.hpp"

namespace xmig::obs {
class Journal;
} // namespace xmig::obs

namespace xmig {

class MigrationMachine;
struct BenchOptions;

/** What to observe and where to write it ("" = that output is off). */
struct ObserveOptions
{
    std::string metricsOut; ///< JSONL metrics dump path
    std::string samplesOut; ///< time-series CSV path
    std::string traceOut;   ///< Chrome trace_event JSON path
    std::string journalOut; ///< xmig-lens event journal JSONL path

    /** References between time-series samples. */
    uint64_t sampleEvery = 10'000;

    /** Time-series ring capacity (rows). */
    size_t sampleCapacity = 4096;

    /** Event-journal ring capacity (events). */
    size_t journalCapacity = 65536;

    /** True if any output was requested. */
    bool
    any() const
    {
        return !metricsOut.empty() || !samplesOut.empty() ||
               !traceOut.empty() || !journalOut.empty();
    }
};

/** Build ObserveOptions from parsed common CLI flags. */
ObserveOptions observeOptionsOf(const BenchOptions &opt);

/**
 * All observability state for one simulation run.
 */
class RunObservatory
{
  public:
    explicit RunObservatory(const ObserveOptions &options);
    ~RunObservatory();

    RunObservatory(const RunObservatory &) = delete;
    RunObservatory &operator=(const RunObservatory &) = delete;

    /**
     * Register `machine`'s full counter tree under `prefix`. With
     * `sampled` true (at most one machine per observatory), also
     * install the standard time-series columns — A_R, Delta, filter
     * value, active core, per-interval event rates, and per-core L2
     * occupancies plus their spread — and attach the event journal
     * (when --journal-out or --trace-out asked for one) to the
     * machine.
     */
    void attachMachine(MigrationMachine &machine,
                       const std::string &prefix, bool sampled);

    /**
     * Advance sampling time by `n` memory references. A feed that
     * stops at every refsUntilSample() instant records each row at
     * exactly the reference its cadence names.
     */
    void
    onReferences(uint64_t n)
    {
        if (sampling_)
            sampler_.tick(n);
    }

    /** References until the next time-series row comes due (>= 1);
     *  UINT64_MAX when this observatory does not sample. */
    uint64_t
    refsUntilSample() const
    {
        return sampling_ ? sampler_.ticksUntilSample() : UINT64_MAX;
    }

    /** The attached machines' counters were just zeroed (warm-up). */
    void
    onStatsReset()
    {
        if (sampling_)
            sampler_.rebaseDeltas();
    }

    /**
     * Export everything that was requested: JSONL metrics, CSV time
     * series, and the journal as JSONL and/or Chrome trace. Must run
     * while every attached machine is still alive. Idempotent.
     */
    void finish();

    obs::MetricsRegistry &registry() { return registry_; }
    obs::TimeSeriesSampler &sampler() { return sampler_; }
    const ObserveOptions &options() const { return options_; }

    /** The event journal (null unless --journal-out or --trace-out
     *  requested one). */
    obs::Journal *journal() { return journal_.get(); }

  private:
    ObserveOptions options_;
    obs::MetricsRegistry registry_;
    obs::TimeSeriesSampler sampler_;
    std::unique_ptr<obs::Journal> journal_;
    bool sampling_ = false;
    bool finished_ = false;
};

} // namespace xmig
