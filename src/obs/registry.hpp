/**
 * @file
 * xmig-scope metrics registry: one namespace for every counter the
 * simulator keeps.
 *
 * Components keep their existing `*Stats` structs as the hot-path
 * storage and copy their values into a registry, under hierarchical
 * dotted names such as `machine.core0.l2.misses` or
 * `engine.migrations`, only when a run is exported. The simulation
 * path never touches a registry.
 *
 * Snapshot rule: a registry holds values, not references. What it
 * reports is what the components held when they registered, so
 * register when the run is over (sim/observe.hpp does so in
 * RunObservatory::finish()); the registry then stays readable after
 * the components are gone. The exporter emits JSONL (one metric per
 * line, for pandas / jq).
 *
 * Thread contract: single-thread confined. Each sweep cell builds
 * and exports its own registry on the worker that runs it; no
 * instance is ever shared across pool workers, so the class carries
 * no locks or capability annotations by design (see
 * docs/analysis.md, "Static analysis: xmig-sentinel").
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/stats.hpp"

namespace xmig::obs {

/** What kind of instrument a registry entry is. */
enum class MetricKind : uint8_t
{
    Counter,   ///< monotonically increasing uint64
    Gauge,     ///< point-in-time value
    Histogram, ///< log2-bucketed distribution
};

/**
 * Power-of-two-bucketed histogram: bucket i counts samples v with
 * bit_width(v) == i (bucket 0 is v == 0). Cheap enough for warm
 * paths; the last bucket absorbs everything wider.
 */
class Histogram
{
  public:
    explicit Histogram(unsigned buckets = 33)
        : buckets_(buckets > 1 ? buckets : 2, 0)
    {
    }

    void
    record(uint64_t v)
    {
        unsigned b = 0;
        while (v != 0 && b + 1 < buckets_.size()) {
            v >>= 1;
            ++b;
        }
        ++buckets_[b];
        ++count_;
    }

    uint64_t count() const { return count_; }
    const std::vector<uint64_t> &buckets() const { return buckets_; }

    /**
     * Estimate the p-th percentile (p in [0, 100]) by linear
     * interpolation inside the log2 bucket holding that rank.
     * Bucket 0 is exactly v == 0 and bucket b >= 1 spans
     * [2^(b-1), 2^b - 1], so single-sample buckets — and in
     * particular exact powers of two — report their lower bound
     * exactly. The open-ended last bucket is treated as its nominal
     * span. Returns 0.0 for an empty histogram.
     */
    double percentile(double p) const;

    void
    reset()
    {
        count_ = 0;
        for (auto &b : buckets_)
            b = 0;
    }

  private:
    std::vector<uint64_t> buckets_;
    uint64_t count_ = 0;
};

/**
 * Named snapshot of counters, gauges and histograms.
 */
class MetricsRegistry
{
  public:
    /**
     * Record a counter's value. Returns false (and records nothing)
     * if `path` is already taken: the first registration wins.
     */
    bool addCounter(const std::string &path, uint64_t value);

    /** Record a gauge's value. */
    bool addGauge(const std::string &path, double value);

    /** Record a copy of `hist`. */
    bool addHistogram(const std::string &path, const Histogram &hist);

    /** True if a metric is registered under `path`. */
    bool contains(const std::string &path) const;

    /** Kind of the metric at `path`, if registered. */
    std::optional<MetricKind> kindOf(const std::string &path) const;

    /**
     * Recorded value of the metric at `path`; a histogram reports its
     * sample count.
     */
    std::optional<double> value(const std::string &path) const;

    /**
     * Exact read of the *counter* at `path` (xmig-storm coverage
     * maps need lossless uint64 values, not the double that value()
     * reports). std::nullopt if `path` is missing or not a counter.
     */
    std::optional<uint64_t> counterValue(const std::string &path) const;

    /** One (name, value) pair of counterSnapshot(). */
    struct CounterSample
    {
        std::string name;
        uint64_t value = 0;

        bool operator==(const CounterSample &) const = default;
    };

    /**
     * Every registered *counter*, name-sorted (the renderJsonl
     * order), values exact. This is the
     * programmatic read-back surface — consumers such as the
     * xmig-storm coverage map use it instead of re-parsing their own
     * JSONL export.
     */
    std::vector<CounterSample> counterSnapshot() const;

    /** Number of registered metrics. */
    size_t size() const { return entries_.size(); }

    /**
     * One metric per line:
     *   {"name":"machine.l2.misses","kind":"counter","value":123}
     * Histograms carry an extra "buckets" array. Lines are sorted by
     * name so dumps diff cleanly.
     */
    std::string renderJsonl() const;

  private:
    struct Entry
    {
        std::string name;
        MetricKind kind = MetricKind::Counter;
        double value = 0.0;            ///< what value() reports
        uint64_t counter = 0;          ///< exact value of a counter
        std::optional<Histogram> hist; ///< copy of a histogram
    };

    bool add(Entry entry);

    /** Indices of entries_, sorted by metric name. */
    std::vector<size_t> sortedOrder() const;

    std::vector<Entry> entries_;
    std::unordered_map<std::string, size_t> index_;
};

} // namespace xmig::obs
