#include "cache/prefetcher.hpp"

#include <bit>

#include "util/hashing.hpp"

namespace xmig {

Prefetcher::Prefetcher(const PrefetcherConfig &config)
    : config_(config)
{
    static_assert(std::has_single_bit(kTableEntries),
                  "stride table size must be a power of two");
    if (config_.kind == PrefetchKind::Stride)
        table_.resize(kTableEntries);
}

void
Prefetcher::onDemand(uint64_t line, bool miss, std::vector<uint64_t> &out)
{
    switch (config_.kind) {
      case PrefetchKind::None:
        return;
      case PrefetchKind::NextLine:
        if (miss) {
            ++stats_.triggers;
            nextLine(line, out);
        }
        return;
      case PrefetchKind::Stride:
        // Stride training observes every demand access; issue only
        // counts as a trigger when candidates are produced.
        stride(line, out);
        return;
    }
}

void
Prefetcher::nextLine(uint64_t line, std::vector<uint64_t> &out)
{
    for (unsigned d = 1; d <= config_.degree; ++d)
        out.push_back(line + d);
    stats_.issued += config_.degree;
}

void
Prefetcher::stride(uint64_t line, std::vector<uint64_t> &out)
{
    const uint64_t region = line >> kRegionShift;
    const uint64_t idx = mix64(region) & (kTableEntries - 1);
    StrideEntry &e = table_[idx];

    if (!e.valid || e.region != region) {
        e.region = region;
        e.lastLine = line;
        e.stride = 0;
        e.confidence = 0;
        e.valid = true;
        return;
    }

    const int64_t observed = static_cast<int64_t>(line) -
                             static_cast<int64_t>(e.lastLine);
    if (observed == 0)
        return; // same line again: nothing to learn
    if (observed == e.stride) {
        if (e.confidence < 255)
            ++e.confidence;
    } else {
        e.stride = observed;
        e.confidence = 0;
    }
    e.lastLine = line;

    if (e.confidence >= kConfidenceThreshold) {
        ++stats_.triggers;
        int64_t target = static_cast<int64_t>(line);
        for (unsigned d = 0; d < config_.degree; ++d) {
            target += e.stride;
            if (target >= 0)
                out.push_back(static_cast<uint64_t>(target));
        }
        stats_.issued += config_.degree;
    }
}

} // namespace xmig
