/**
 * @file
 * Figures 4 and 5 experiment: LRU stack profiles with 4-way splitting.
 *
 * Per section 4.1: the benchmark's reference stream is filtered by
 * 16-KB fully-associative LRU IL1/DL1 caches (loads and stores not
 * distinguished); each post-L1 line address is (a) pushed through a
 * single LRU stack to obtain p1(x), and (b) routed by the 4-way
 * affinity splitter to one of four LRU stacks to obtain the global
 * profile p4(x). Splitter parameters: 20-bit transition filters,
 * |R_X| = 128, |R_Y| = 64, unlimited affinity cache, no sampling, no
 * L2 filtering. p(x) is the fraction of references with stack depth
 * greater than x (first touches count as infinite depth).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/kway_splitter.hpp"

namespace xmig {

/** Parameters of a profile run. */
struct StackProfileParams
{
    uint64_t instructionsPerBenchmark = 20'000'000;
    uint64_t l1Bytes = 16 * 1024;
    uint64_t lineBytes = 64;
    uint64_t seed = 42;

    KWaySplitter::Config splitter = defaultSplitter();

    /** x values (cache sizes in bytes) at which p1/p4 are reported. */
    std::vector<uint64_t> plotSizes = defaultPlotSizes();

    /** The section 3.6 4-way split: the depth-2 tree. */
    static KWaySplitter::Config
    defaultSplitter()
    {
        KWaySplitter::Config c;
        c.depth = 2;
        c.rootWindow = 128; // |R_X| = 128, |R_Y| = 64
        c.filterBits = 20;
        c.samplingCutoff = 31; // unlimited affinity cache, no sampling
        return c;
    }

    static std::vector<uint64_t>
    defaultPlotSizes()
    {
        std::vector<uint64_t> sizes;
        for (uint64_t s = 16 * 1024; s <= 16 * 1024 * 1024; s *= 2)
            sizes.push_back(s);
        return sizes;
    }
};

/** Result of one profile run. */
struct StackProfileResult
{
    std::string name;
    std::string suite;
    uint64_t instructions = 0;
    uint64_t stackAccesses = 0;  ///< post-L1 references profiled
    uint64_t transitions = 0;
    double transitionFrequency = 0.0; ///< the "trans:" label
    uint64_t footprintLines = 0; ///< distinct lines in the stream

    std::vector<uint64_t> plotSizes;
    std::vector<double> p1; ///< single-stack profile
    std::vector<double> p4; ///< 4-way-split global profile

    /**
     * Splittability gap: max over x of p1(x) - p4(x). Large values
     * mean the split stacks hit where the single stack misses.
     */
    double maxGap() const;
};

/** Run the Figures 4/5 experiment for one benchmark. */
StackProfileResult runStackProfile(const std::string &benchmark,
                                   const StackProfileParams &params);

} // namespace xmig
