/**
 * @file
 * Coverage for API corners not exercised elsewhere: stats resets,
 * sink rewiring, engine A_R accessors across widths, splitter filter
 * accessors, and machine stats reset semantics.
 */

#include <gtest/gtest.h>

#include "cache/cache.hpp"
#include "cache/l1_filter.hpp"
#include "core/kway_splitter.hpp"
#include "multicore/machine.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

TEST(ApiCorners, CacheResetStatsKeepsContents)
{
    CacheConfig cfg;
    cfg.capacityBytes = 8 * 64;
    cfg.ways = 2;
    Cache cache(cfg);
    cache.access(1, false);
    cache.access(1, false);
    cache.resetStats();
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_TRUE(cache.contains(1)); // contents survive
    cache.access(1, false);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ApiCorners, L1FilterSinkCanBeRewired)
{
    struct CaptureSink : LineSink
    {
        uint64_t events = 0;
        void onLine(const LineEvent &) override { ++events; }
    };
    CaptureSink first, second;
    L1FilterConfig c;
    c.il1Bytes = 4 * 64;
    c.dl1Bytes = 4 * 64;
    L1Filter filter(c, first);
    filter.access(MemRef::load(0x1000));
    EXPECT_EQ(first.events, 1u);
    filter.setSink(second);
    filter.access(MemRef::load(0x2000));
    EXPECT_EQ(first.events, 1u);
    EXPECT_EQ(second.events, 1u);
}

TEST(ApiCorners, EngineExposesDeltaAndWindowAffinity)
{
    for (unsigned bits : {8u, 16u, 24u}) {
        EngineConfig ec;
        ec.affinityBits = bits;
        ec.windowSize = 32;
        UnboundedOeStore store(bits);
        AffinityEngine engine(ec, store);
        CircularStream s(500);
        for (int t = 0; t < 10'000; ++t)
            engine.reference(s.next());
        // Delta is bounded by its (bits+1)-wide saturation range.
        EXPECT_GE(engine.delta(), SatInt::minForBits(bits + 1));
        EXPECT_LE(engine.delta(), SatInt::maxForBits(bits + 1));
        EXPECT_EQ(engine.references(), 10'000u);
        EXPECT_EQ(engine.config().affinityBits, bits);
    }
}

TEST(ApiCorners, SplitterNodeFilterAccessors)
{
    // Depth 2: heap nodes 0/1/2 are the paper's X/Y[+1]/Y[-1].
    UnboundedOeStore store(16);
    KWaySplitter::Config c;
    c.depth = 2;
    KWaySplitter splitter(c, store);
    EXPECT_EQ(&splitter.rootFilter(), &splitter.filter(0));
    EXPECT_EQ(splitter.filter(0).value(), 0);
    EXPECT_EQ(splitter.filter(1).value(), 0);
    EXPECT_EQ(splitter.filter(2).value(), 0);
    UniformRandomStream s(1000);
    for (int t = 0; t < 20'000; ++t)
        splitter.onReference(s.next());
    // X and the Y level both received traffic.
    EXPECT_GT(splitter.filter(0).updates(), 0u);
    EXPECT_GT(splitter.filter(1).updates() + splitter.filter(2).updates(),
              0u);
}

TEST(ApiCorners, MachineResetStatsKeepsTraining)
{
    MachineConfig cfg;
    MigrationMachine m(cfg);
    CircularStream s(20'000);
    for (int t = 0; t < 500'000; ++t)
        m.access(MemRef::load(0x40000000 + s.next() * 64));
    const unsigned active_before = m.activeCore();
    m.resetStats();
    EXPECT_EQ(m.stats().l2Misses, 0u);
    EXPECT_EQ(m.stats().migrations, 0u);
    // Machine *state* survives: active core, cache contents, and the
    // controller's training, so post-reset behavior is steady-state.
    EXPECT_EQ(m.activeCore(), active_before);
    EXPECT_GT(m.l2(active_before).frames().occupancy(), 0u);
    for (int t = 0; t < 100'000; ++t)
        m.access(MemRef::load(0x40000000 + s.next() * 64));
    // Trained machine: far fewer misses than accesses.
    EXPECT_LT(m.stats().l2Misses, m.stats().l2Accesses / 2);
}

TEST(ApiCorners, RefSinkPolymorphismAcceptsMachine)
{
    // A MigrationMachine is a RefSink like any other consumer.
    MachineConfig cfg;
    cfg.numCores = 1;
    MigrationMachine m(cfg);
    RefSink &sink = m;
    sink.access(MemRef::ifetch(0x400000));
    EXPECT_EQ(m.stats().instructions, 1u);
}

} // namespace
} // namespace xmig
