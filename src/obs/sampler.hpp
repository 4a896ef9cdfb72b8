/**
 * @file
 * xmig-scope time-series sampler: bounded-memory periodic probes.
 *
 * A TimeSeriesSampler owns a set of named columns — absolute probes
 * (closures read at sample time: A_R, Delta, occupancies) and delta
 * columns (pointers to cumulative event counters, reported as
 * per-interval differences: migration rate, L2-miss rate). Calling
 * tick() once per simulated reference advances logical time; every
 * `sampleEvery` ticks one row is recorded into a fixed-capacity ring
 * buffer, so memory stays bounded no matter how long the run is.
 * The buffer dumps as CSV (oldest surviving row first) for
 * Figure-3-style plots of the affinity algorithm over time.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace xmig::obs {

/** Sampling cadence. */
struct SamplerConfig
{
    static constexpr uint64_t kDefaultSampleEvery = 10'000;

    /** Ticks (references) between samples; 0 = kDefaultSampleEvery. */
    uint64_t sampleEvery = kDefaultSampleEvery;
};

/**
 * Periodic multi-column sampler over a ring buffer.
 */
class TimeSeriesSampler
{
  public:
    using Probe = std::function<double()>;

    /** Ring-buffer capacity in rows; older rows are overwritten. */
    static constexpr size_t kCapacity = 4096;

    explicit TimeSeriesSampler(const SamplerConfig &config = {});

    /** Add an absolute column; `probe` is called at each sample. */
    void addColumn(std::string name, Probe probe);

    /**
     * Add a per-interval delta column over the cumulative counter at
     * `*counter`: each sample reports the increase since the previous
     * sample, turning running totals into rates without touching the
     * hot-path struct. The pointer must stay valid while sampling.
     */
    void addDeltaColumn(std::string name, const uint64_t *counter);

    /** Advance logical time by `n` ticks; samples rows as they come
     *  due. Returns true if at least one row was recorded. */
    bool tick(uint64_t n = 1);

    /**
     * Ticks until the next row comes due (>= 1): tick(n) with n up to
     * this value records at most one row, at its last tick.
     */
    uint64_t ticksUntilSample() const { return nextSampleAt_ - ticks_; }

    /** Record one row now, regardless of cadence. */
    void sampleNow();

    /**
     * Re-read every delta column's counter as its new baseline. Call
     * after the counters were zeroed (a warm-up reset): the next row
     * then reports the increase since the reset instead of a counter
     * that went backwards.
     */
    void rebaseDeltas();

    /** Rows currently held (<= kCapacity). */
    size_t samples() const;

    /** Rows recorded over the sampler's lifetime. */
    uint64_t totalSamples() const { return totalSamples_; }

    /** True once old rows have been overwritten. */
    bool wrapped() const { return totalSamples_ > kCapacity; }

    /** Logical time (ticks seen so far). */
    uint64_t ticks() const { return ticks_; }

    const SamplerConfig &config() const { return config_; }
    const std::vector<std::string> &columnNames() const { return names_; }

    /**
     * Read back row `i` (0 = oldest surviving): the tick it was
     * sampled at and one value per column, in column order.
     */
    uint64_t rowTick(size_t i) const;
    std::vector<double> rowValues(size_t i) const;

    /**
     * CSV dump, oldest surviving row first. Columns: `t` (tick of the
     * sample), `interval` (ticks since the previous sample), then
     * every added column. Headers are csvQuote()d.
     */
    std::string renderCsv() const;

  private:
    size_t stride() const { return 2 + names_.size(); }
    size_t physicalRow(size_t i) const;
    void record();

    SamplerConfig config_;
    std::vector<std::string> names_;
    std::vector<Probe> probes_;              ///< 1:1 with names_
    std::vector<const uint64_t *> deltaSrc_; ///< null for absolute cols
    std::vector<uint64_t> deltaPrev_;        ///< last cumulative value

    /** Flat ring: rows of [tick, interval, col...]. */
    std::vector<double> ring_;
    size_t head_ = 0; ///< next physical row to write
    uint64_t totalSamples_ = 0;

    uint64_t ticks_ = 0;
    uint64_t nextSampleAt_;
    Counter sinceLastSample_; ///< drained via snapshotAndReset()
};

} // namespace xmig::obs
