#include "obs/sampler.hpp"

#include <cstdio>

#include "util/contracts.hpp"

namespace xmig::obs {

TimeSeriesSampler::TimeSeriesSampler(const SamplerConfig &config)
    : config_(config),
      nextSampleAt_(config.sampleEvery)
{
    XMIG_ASSERT(config_.capacity >= 1,
                "sampler ring needs at least one row");
}

void
TimeSeriesSampler::addColumn(std::string name, Probe probe)
{
    XMIG_ASSERT(static_cast<bool>(probe), "null probe for column '%s'",
                name.c_str());
    XMIG_ASSERT(totalSamples_ == 0,
                "columns must be added before the first sample");
    names_.push_back(std::move(name));
    probes_.push_back(std::move(probe));
    deltaSrc_.push_back(nullptr);
    deltaPrev_.push_back(0);
}

void
TimeSeriesSampler::addDeltaColumn(std::string name,
                                  const uint64_t *counter)
{
    XMIG_ASSERT(counter != nullptr, "null counter for column '%s'",
                name.c_str());
    XMIG_ASSERT(totalSamples_ == 0,
                "columns must be added before the first sample");
    names_.push_back(std::move(name));
    probes_.emplace_back(); // unused for delta columns
    deltaSrc_.push_back(counter);
    deltaPrev_.push_back(*counter);
}

bool
TimeSeriesSampler::tick(uint64_t n)
{
    ticks_ += n;
    sinceLastSample_.add(n);
    if (config_.sampleEvery == 0 || ticks_ < nextSampleAt_)
        return false;
    bool sampled = false;
    while (ticks_ >= nextSampleAt_) {
        record();
        nextSampleAt_ += config_.sampleEvery;
        sampled = true;
    }
    return sampled;
}

void
TimeSeriesSampler::sampleNow()
{
    record();
}

void
TimeSeriesSampler::rebaseDeltas()
{
    for (size_t c = 0; c < names_.size(); ++c) {
        if (deltaSrc_[c])
            deltaPrev_[c] = *deltaSrc_[c];
    }
}

void
TimeSeriesSampler::record()
{
    if (ring_.empty())
        ring_.assign(config_.capacity * stride(), 0.0);

    double *row = &ring_[head_ * stride()];
    row[0] = static_cast<double>(ticks_);
    // The interval column drains the tick counter so per-sample
    // deltas cannot drift from the cumulative tick total.
    row[1] = static_cast<double>(sinceLastSample_.snapshotAndReset());
    for (size_t c = 0; c < names_.size(); ++c) {
        if (deltaSrc_[c]) {
            const uint64_t now = *deltaSrc_[c];
            XMIG_AUDIT(now >= deltaPrev_[c],
                       "cumulative counter for column '%s' went "
                       "backwards (%llu -> %llu)",
                       names_[c].c_str(),
                       (unsigned long long)deltaPrev_[c],
                       (unsigned long long)now);
            row[2 + c] = static_cast<double>(now - deltaPrev_[c]);
            deltaPrev_[c] = now;
        } else {
            row[2 + c] = probes_[c]();
        }
    }

    head_ = (head_ + 1) % config_.capacity;
    ++totalSamples_;
}

size_t
TimeSeriesSampler::samples() const
{
    return totalSamples_ < config_.capacity
        ? static_cast<size_t>(totalSamples_)
        : config_.capacity;
}

size_t
TimeSeriesSampler::physicalRow(size_t i) const
{
    XMIG_ASSERT(i < samples(), "sample row %zu of %zu", i, samples());
    if (totalSamples_ <= config_.capacity)
        return i; // not yet wrapped: rows sit in write order
    return (head_ + i) % config_.capacity; // head_ is the oldest row
}

uint64_t
TimeSeriesSampler::rowTick(size_t i) const
{
    return static_cast<uint64_t>(ring_[physicalRow(i) * stride()]);
}

std::vector<double>
TimeSeriesSampler::rowValues(size_t i) const
{
    const double *row = &ring_[physicalRow(i) * stride()];
    return std::vector<double>(row + 2, row + stride());
}

std::string
TimeSeriesSampler::renderCsv() const
{
    std::string out = "t,interval";
    for (const auto &name : names_) {
        out += ',';
        out += csvQuote(name);
    }
    out += "\n";
    char buf[32];
    for (size_t i = 0; i < samples(); ++i) {
        const double *row = &ring_[physicalRow(i) * stride()];
        for (size_t c = 0; c < stride(); ++c) {
            if (c)
                out += ",";
            std::snprintf(buf, sizeof(buf), "%.10g", row[c]);
            out += buf;
        }
        out += "\n";
    }
    return out;
}

} // namespace xmig::obs
