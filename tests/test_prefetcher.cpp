/**
 * @file
 * Unit and integration tests for the L2 stride prefetcher and its
 * machine-model plumbing (section 6 extension).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "cache/prefetcher.hpp"
#include "multicore/machine.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

TEST(Prefetcher, NoneIssuesNothing)
{
    Prefetcher pf(PrefetcherConfig{});
    std::vector<uint64_t> out;
    pf.onDemand(100, out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(pf.stats().issued, 0u);
}

TEST(Prefetcher, StrideDetectsPositiveStride)
{
    PrefetcherConfig c;
    c.kind = PrefetchKind::Stride;
    c.degree = 2;
    Prefetcher pf(c);
    std::vector<uint64_t> out;
    // Stride-4 stream: 0, 4, 8, 12, ...
    for (uint64_t line = 0; line <= 12; line += 4) {
        out.clear();
        pf.onDemand(line, out);
    }
    // By line 12 confidence reached the threshold.
    EXPECT_EQ(out, (std::vector<uint64_t>{16, 20}));
}

TEST(Prefetcher, StrideDetectsNegativeStride)
{
    PrefetcherConfig c;
    c.kind = PrefetchKind::Stride;
    c.degree = 1;
    Prefetcher pf(c);
    std::vector<uint64_t> out;
    for (uint64_t line = 1000; line >= 976; line -= 8) {
        out.clear();
        pf.onDemand(line, out);
    }
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 976u - 8);
}

TEST(Prefetcher, StrideResetsOnPatternBreak)
{
    PrefetcherConfig c;
    c.kind = PrefetchKind::Stride;
    Prefetcher pf(c);
    std::vector<uint64_t> out;
    for (uint64_t line : {0u, 4u, 8u, 12u}) {
        out.clear();
        pf.onDemand(line, out);
    }
    EXPECT_FALSE(out.empty());
    out.clear();
    pf.onDemand(1000, out); // break
    EXPECT_TRUE(out.empty());
    out.clear();
    pf.onDemand(1004, out); // new stride, confidence 0
    EXPECT_TRUE(out.empty());
}

TEST(Prefetcher, RandomStreamStaysQuiet)
{
    PrefetcherConfig c;
    c.kind = PrefetchKind::Stride;
    Prefetcher pf(c);
    Rng rng(4);
    std::vector<uint64_t> out;
    for (int i = 0; i < 20000; ++i)
        pf.onDemand(rng.below(1 << 20), out);
    // Essentially no stride should survive the confidence gate.
    EXPECT_LT(pf.stats().issued, 600u);
}

TEST(PrefetchMachine, StrideRemovesSequentialMisses)
{
    MachineConfig plain;
    plain.numCores = 1;
    MachineConfig with_pf = plain;
    with_pf.prefetch.kind = PrefetchKind::Stride;
    with_pf.prefetch.degree = 4;

    MigrationMachine base(plain), pf(with_pf);
    // A large sequential stream is a stride-1 stream in every region:
    // once each region's stride is confident, prefetching should
    // remove the bulk of the L2 misses.
    for (int round = 0; round < 4; ++round) {
        for (uint64_t line = 0; line < 100'000; ++line) {
            const MemRef r = MemRef::load(0x40000000 + line * 64);
            base.access(r);
            pf.access(r);
        }
    }
    EXPECT_LT(pf.stats().l2Misses, base.stats().l2Misses / 3);
    EXPECT_GT(pf.stats().prefetchUseful, 0u);
    EXPECT_LE(pf.stats().prefetchUseful, pf.stats().prefetchFills);
}

TEST(PrefetchMachine, PrefetchDoesNotBreakCoherence)
{
    MachineConfig c; // 4-core migration machine
    c.prefetch.kind = PrefetchKind::Stride;
    c.prefetch.degree = 2;
    MigrationMachine m(c);
    CircularStream s(20'000);
    Rng rng(5);
    for (int t = 0; t < 500'000; ++t) {
        const uint64_t addr = 0x40000000 + s.next() * 64;
        m.access(rng.chance(0.2) ? MemRef::store(addr)
                                 : MemRef::load(addr));
    }
    EXPECT_EQ(m.countMultiModifiedLines(), 0u);
}

} // namespace
} // namespace xmig
