#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json.hpp"
#include "util/contracts.hpp"

namespace xmig::obs {

namespace {

const char *
kindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter:
        return "counter";
      case MetricKind::Gauge:
        return "gauge";
      case MetricKind::Histogram:
        return "histogram";
    }
    return "?";
}

} // namespace

double
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0.0;
    if (p < 0.0)
        p = 0.0;
    if (p > 100.0)
        p = 100.0;
    // Rank of the requested sample, 1-based; p = 0 selects the first.
    const double raw = p / 100.0 * static_cast<double>(count_);
    uint64_t target = static_cast<uint64_t>(raw);
    if (static_cast<double>(target) < raw)
        ++target; // ceil
    if (target == 0)
        target = 1;
    uint64_t cum = 0;
    for (size_t b = 0; b < buckets_.size(); ++b) {
        const uint64_t n = buckets_[b];
        if (n == 0 || cum + n < target) {
            cum += n;
            continue;
        }
        if (b == 0)
            return 0.0; // bucket 0 holds exactly v == 0
        const double lo = std::ldexp(1.0, static_cast<int>(b) - 1);
        const double hi = lo * 2.0 - 1.0;
        // 0-based index of the rank inside this bucket; single-sample
        // buckets land on the lower bound exactly.
        const double idx = static_cast<double>(target - cum - 1);
        const double frac =
            n > 1 ? idx / static_cast<double>(n - 1) : 0.0;
        return lo + frac * (hi - lo);
    }
    return 0.0; // unreachable: target <= count_
}

bool
MetricsRegistry::add(Entry entry)
{
    XMIG_ASSERT(!entry.name.empty(), "metric path must not be empty");
    if (!index_.emplace(entry.name, entries_.size()).second)
        return false;
    entries_.push_back(std::move(entry));
    return true;
}

bool
MetricsRegistry::addCounter(const std::string &path, uint64_t value)
{
    return add({path, MetricKind::Counter, static_cast<double>(value),
                value, std::nullopt});
}

bool
MetricsRegistry::addGauge(const std::string &path, double value)
{
    return add({path, MetricKind::Gauge, value, 0, std::nullopt});
}

bool
MetricsRegistry::addHistogram(const std::string &path,
                              const Histogram &hist)
{
    return add({path, MetricKind::Histogram,
                static_cast<double>(hist.count()), 0, hist});
}

bool
MetricsRegistry::contains(const std::string &path) const
{
    return index_.count(path) != 0;
}

std::optional<MetricKind>
MetricsRegistry::kindOf(const std::string &path) const
{
    auto it = index_.find(path);
    if (it == index_.end())
        return std::nullopt;
    return entries_[it->second].kind;
}

std::optional<double>
MetricsRegistry::value(const std::string &path) const
{
    auto it = index_.find(path);
    if (it == index_.end())
        return std::nullopt;
    return entries_[it->second].value;
}

std::optional<uint64_t>
MetricsRegistry::counterValue(const std::string &path) const
{
    auto it = index_.find(path);
    if (it == index_.end())
        return std::nullopt;
    const Entry &e = entries_[it->second];
    if (e.kind != MetricKind::Counter)
        return std::nullopt;
    return e.counter;
}

std::vector<MetricsRegistry::CounterSample>
MetricsRegistry::counterSnapshot() const
{
    std::vector<CounterSample> out;
    for (const size_t i : sortedOrder()) {
        const Entry &e = entries_[i];
        if (e.kind == MetricKind::Counter)
            out.push_back({e.name, e.counter});
    }
    return out;
}

std::vector<size_t>
MetricsRegistry::sortedOrder() const
{
    std::vector<size_t> order(entries_.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return entries_[a].name < entries_[b].name;
    });
    return order;
}

std::string
MetricsRegistry::renderJsonl() const
{
    std::string out;
    for (const size_t i : sortedOrder()) {
        const Entry &e = entries_[i];
        out += "{\"name\":\"" + jsonEscape(e.name) + "\",\"kind\":\"";
        out += kindName(e.kind);
        out += "\",\"value\":" + jsonNumber(e.value);
        if (e.hist) {
            out += ",\"p50\":" + jsonNumber(e.hist->percentile(50));
            out += ",\"p95\":" + jsonNumber(e.hist->percentile(95));
            out += ",\"p99\":" + jsonNumber(e.hist->percentile(99));
            out += ",\"p999\":" + jsonNumber(e.hist->percentile(99.9));
            out += ",\"buckets\":[";
            const auto &buckets = e.hist->buckets();
            for (size_t b = 0; b < buckets.size(); ++b) {
                if (b)
                    out += ",";
                out += jsonNumber(static_cast<double>(buckets[b]));
            }
            out += "]";
        }
        out += "}\n";
    }
    return out;
}

} // namespace xmig::obs
