/**
 * @file
 * L2 prefetchers (section 6 extension).
 *
 * The paper's conclusion asks how execution migration interacts with
 * prefetching: much observed splittability comes from circular
 * working-set behavior "on which prefetching is likely to succeed",
 * while linked data structures resist prefetching but can still
 * split. To study that question this module provides two classic
 * prefetchers operating on the post-L1 line stream:
 *
 *  - NextLine: on a demand miss, fetch the next `degree` lines;
 *  - Stride: a region-indexed table detects constant strides (of any
 *    sign/magnitude) and issues `degree` prefetches along the stride
 *    once confidence builds.
 *
 * The machine model fills prefetched lines into the active core's
 * L2 and tracks usefulness (a prefetched line consumed by a demand
 * access before eviction).
 */

#pragma once

#include <cstdint>
#include <vector>

namespace xmig {

/** Prefetching policy. */
enum class PrefetchKind : uint8_t
{
    None,
    NextLine,
    Stride,
};

/** Prefetcher configuration. */
struct PrefetcherConfig
{
    PrefetchKind kind = PrefetchKind::None;
    unsigned degree = 2; ///< prefetches per trigger
};

/** Prefetch activity counters. */
struct PrefetchStats
{
    uint64_t triggers = 0; ///< demand misses observed
    uint64_t issued = 0;   ///< prefetch candidates produced
};

/**
 * Stateful prefetch-candidate generator over a line-address stream.
 */
class Prefetcher
{
  public:
    explicit Prefetcher(const PrefetcherConfig &config);

    /**
     * Observe a demand access. On a miss (and for Stride, once the
     * detected stride is confident), appends prefetch candidate line
     * addresses to `out`. The caller decides what to do with them.
     */
    void onDemand(uint64_t line, bool miss,
                  std::vector<uint64_t> &out);

    const PrefetchStats &stats() const { return stats_; }
    const PrefetcherConfig &config() const { return config_; }

  private:
    static constexpr unsigned kTableEntries = 256; ///< stride-table size
    static constexpr unsigned kRegionShift = 6; ///< 2^6 lines per region
    static constexpr unsigned kConfidenceThreshold = 2; ///< repeats to issue

    struct StrideEntry
    {
        uint64_t region = 0;
        uint64_t lastLine = 0;
        int64_t stride = 0;
        uint8_t confidence = 0;
        bool valid = false;
    };

    void nextLine(uint64_t line, std::vector<uint64_t> &out);
    void stride(uint64_t line, std::vector<uint64_t> &out);

    PrefetcherConfig config_;
    std::vector<StrideEntry> table_;
    PrefetchStats stats_;
};

} // namespace xmig
