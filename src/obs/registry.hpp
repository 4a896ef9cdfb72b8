/**
 * @file
 * xmig-scope metrics registry: one namespace for every counter the
 * simulator keeps.
 *
 * Components keep their existing `*Stats` structs as the hot-path
 * storage; the registry holds *pointers* (or read-only closures) into
 * that storage under hierarchical dotted names such as
 * `machine.core0.l2.misses` or `engine.migrations`. Registration is
 * therefore free on the simulation path — values are only read when
 * an exporter runs. Exporters emit JSONL (one metric per line, for
 * pandas / jq), CSV, and the repo's AsciiTable format.
 *
 * Lifetime rule: a registered pointer/closure must outlive the last
 * export. The intended pattern is one registry per run, registered
 * right after the machines are built and exported right before they
 * are destroyed (see sim/observe.hpp).
 *
 * Thread contract: single-thread confined. Each sweep cell builds
 * and exports its own registry on the worker that runs it; no
 * instance is ever shared across pool workers, so the class carries
 * no locks or capability annotations by design (see
 * docs/analysis.md, "Static analysis: xmig-sentinel").
 */

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/stats.hpp"

namespace xmig::obs {

/** What kind of instrument a registry entry is. */
enum class MetricKind : uint8_t
{
    Counter,   ///< monotonically increasing uint64 (pointer)
    Gauge,     ///< point-in-time value (closure, read at export)
    Histogram, ///< log2-bucketed distribution (pointer)
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
 * Named registry of counters, gauges and histograms.
 */
class MetricsRegistry
{
  public:
    using GaugeFn = std::function<double()>;

    /**
     * Register a counter living at `*counter`. Returns false (and
     * registers nothing) if `path` is already taken — callers that
     * re-attach the same component twice get dedup, not aliasing.
     */
    bool addCounter(const std::string &path, const uint64_t *counter);

    /** Register a gauge computed by `fn` at export time. */
    bool addGauge(const std::string &path, GaugeFn fn);

    /** Register a histogram living at `*hist`. */
    bool addHistogram(const std::string &path, const Histogram *hist);

    /** True if a metric is registered under `path`. */
    bool contains(const std::string &path) const;

    /** Kind of the metric at `path`, if registered. */
    std::optional<MetricKind> kindOf(const std::string &path) const;

    /**
     * Current value of the metric at `path`: counters and gauges read
     * their storage; histograms report their sample count.
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
     * Ordered snapshot of every registered *counter*: name-sorted
     * (the renderJsonl order), values read exactly. This is the
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
        MetricKind kind;
        const uint64_t *counter = nullptr;
        GaugeFn gauge;
        const Histogram *hist = nullptr;
    };

    bool claim(const std::string &path);
    double read(const Entry &e) const;

    /** Indices of entries_, sorted by metric name. */
    std::vector<size_t> sortedOrder() const;

    std::vector<Entry> entries_;
    std::unordered_map<std::string, size_t> index_;
};

} // namespace xmig::obs
