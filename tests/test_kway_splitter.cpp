/**
 * @file
 * Tests for the recursive k-way splitter: depth 1 is the paper's
 * 2-way split (sections 3.2-3.4), depth 2 its section 3.6 4-way
 * split, deeper trees the section 6 "larger number of cores"
 * conjecture. Decision-for-decision goldens live in test_splitter.cpp.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/kway_splitter.hpp"
#include "core/oe_store.hpp"
#include "util/hashing.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

KWaySplitter::Config
config(unsigned depth)
{
    KWaySplitter::Config c;
    c.depth = depth;
    c.rootWindow = 128;
    c.filterBits = 20;
    return c;
}

TEST(KWaySplitter, TreeShape)
{
    UnboundedOeStore store(16);
    for (unsigned depth : {1u, 2u, 3u, 4u}) {
        KWaySplitter splitter(config(depth), store);
        EXPECT_EQ(splitter.numSubsets(), 1u << depth);
        EXPECT_EQ(splitter.numMechanisms(), (1u << depth) - 1);
    }
}

TEST(KWaySplitter, SubsetInRange)
{
    for (unsigned depth : {1u, 2u, 3u}) {
        UnboundedOeStore store(16);
        KWaySplitter splitter(config(depth), store);
        // Fresh filters are all positive: subset 0.
        EXPECT_EQ(splitter.subset(), 0u);
        UniformRandomStream s(4000);
        for (int t = 0; t < 100'000; ++t) {
            const SplitDecision d = splitter.onReference(s.next());
            ASSERT_LT(d.subset, 1u << depth);
            ASSERT_EQ(d.subset, splitter.subset());
        }
    }
}

TEST(KWaySplitter, OddResiduesDriveXEvenDriveY)
{
    // Section 3.6: odd H(e) drives X (the root), even H(e) drives
    // Y[sign(F_X)] (a second-level node).
    UnboundedOeStore store(16);
    KWaySplitter::Config c = config(2);
    c.rootWindow = 8;
    KWaySplitter splitter(c, store);
    const uint64_t odd_line = 1; // H(1) = 1
    ASSERT_EQ(hashMod31(odd_line) % 2, 1u);
    splitter.onReference(odd_line);
    EXPECT_EQ(splitter.rootEngine().references(), 1u);
    EXPECT_EQ(splitter.filter(0).updates(), 1u);
    const uint64_t even_line = 2; // H(2) = 2
    ASSERT_EQ(hashMod31(even_line) % 2, 0u);
    splitter.onReference(even_line);
    EXPECT_EQ(splitter.rootEngine().references(), 1u);
    // F_X >= 0, so the line went to Y[+1] (heap node 1).
    EXPECT_EQ(splitter.filter(1).updates(), 1u);
    EXPECT_EQ(splitter.filter(2).updates(), 0u);
}

TEST(KWaySplitter, TransitionsCounted)
{
    for (unsigned depth : {1u, 2u, 3u}) {
        UnboundedOeStore store(16);
        KWaySplitter splitter(config(depth), store);
        UniformRandomStream s(2000);
        uint64_t flagged = 0;
        for (int t = 0; t < 200'000; ++t)
            flagged += splitter.onReference(s.next()).transition ? 1 : 0;
        EXPECT_GT(splitter.transitions(), 0u) << "depth " << depth;
        EXPECT_EQ(splitter.transitions(), flagged) << "depth " << depth;
    }
}

TEST(KWaySplitter, DepthOneMatchesTwoWayBehavior)
{
    // depth 1 == one mechanism == the paper's 2-way splitter.
    UnboundedOeStore store(16);
    KWaySplitter splitter(config(1), store);
    CircularStream s(4000);
    for (int t = 0; t < 1'000'000; ++t)
        splitter.onReference(s.next());
    std::map<unsigned, uint64_t> count;
    for (int t = 0; t < 4000; ++t)
        ++count[splitter.onReference(s.next()).subset];
    EXPECT_GT(count[0], 1200u);
    EXPECT_GT(count[1], 1200u);
}

TEST(KWaySplitter, CircularConvergesToFourBalancedSubsets)
{
    UnboundedOeStore store(16);
    KWaySplitter splitter(config(2), store);
    CircularStream s(4000);
    for (int t = 0; t < 2'000'000; ++t)
        splitter.onReference(s.next());
    std::map<unsigned, uint64_t> count;
    unsigned prev = 99;
    uint64_t segments = 0;
    for (int t = 0; t < 4000; ++t) {
        const unsigned sub = splitter.onReference(s.next()).subset;
        ++count[sub];
        if (sub != prev)
            ++segments;
        prev = sub;
    }
    for (unsigned k = 0; k < 4; ++k)
        EXPECT_GT(count[k], 600u) << "subset " << k << " too small";
    // Near-contiguous quarters: a handful of time segments per cycle.
    EXPECT_LE(segments, 16u);
}

TEST(KWaySplitter, EightWayCircularBalancedSubsets)
{
    UnboundedOeStore store(16);
    KWaySplitter splitter(config(3), store);
    CircularStream s(8000);
    for (int t = 0; t < 6'000'000; ++t)
        splitter.onReference(s.next());
    std::map<unsigned, uint64_t> count;
    unsigned prev = 99;
    uint64_t segments = 0;
    for (int t = 0; t < 8000; ++t) {
        const unsigned sub = splitter.onReference(s.next()).subset;
        ++count[sub];
        if (sub != prev)
            ++segments;
        prev = sub;
    }
    // All 8 subsets populated, none dominating.
    EXPECT_EQ(count.size(), 8u);
    for (const auto &[sub, n] : count)
        EXPECT_GT(n, 300u) << "subset " << sub;
    // Time-coherent: bounded number of runs per cycle.
    EXPECT_LE(segments, 48u);
}

TEST(KWaySplitter, FilterFrozenWithoutUpdateFlag)
{
    // L2 filtering: with update_filter = false the subset can never
    // change, whatever the affinities do.
    for (unsigned depth : {1u, 2u, 3u}) {
        UnboundedOeStore store(16);
        KWaySplitter::Config c = config(depth);
        c.filterBits = 16;
        KWaySplitter splitter(c, store);
        UniformRandomStream s(2000);
        for (int t = 0; t < 50'000; ++t) {
            const SplitDecision d =
                splitter.onReference(s.next(), false);
            ASSERT_FALSE(d.transition);
            ASSERT_EQ(d.subset, 0u);
        }
        EXPECT_EQ(splitter.transitions(), 0u);
        // Engine state advanced regardless.
        EXPECT_GT(splitter.rootEngine().references(), 0u);
    }
}

TEST(KWaySplitter, SamplingCutoffRespected)
{
    for (unsigned depth : {1u, 2u, 3u}) {
        UnboundedOeStore store(16);
        KWaySplitter::Config c = config(depth);
        c.samplingCutoff = 8;
        KWaySplitter splitter(c, store);
        for (uint64_t line = 0; line < 310; ++line) {
            const SplitDecision d = splitter.onReference(line);
            ASSERT_EQ(d.sampled, hashMod31(line) < 8);
            if (!d.sampled) {
                ASSERT_EQ(d.ae, 0);
            }
        }
        // 8 of 31 residues over 310 lines; unsampled lines must not
        // touch the O_e store.
        EXPECT_EQ(store.stats().lookups, 80u);
    }
}

} // namespace
} // namespace xmig
