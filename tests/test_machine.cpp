/**
 * @file
 * Unit and invariant tests for the migration-mode multi-core machine
 * (section 2 semantics).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "multicore/machine.hpp"
#include "obs/journal.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

/** Small machine for hand-traced scenarios. */
MachineConfig
tinyMachine(unsigned cores)
{
    MachineConfig c;
    c.numCores = cores;
    c.il1Bytes = 4 * 64;
    c.dl1Bytes = 4 * 64;
    c.l1Ways = 2;
    c.l2Bytes = 16 * 64;
    c.l2Ways = 4;
    c.l2Skewed = false;
    c.controller.windowX = 8;
    c.controller.filterBits = 16;
    c.controller.l2Filtering = false;
    c.controller.boundedStore = false;
    c.controller.samplingCutoff = 31;
    return c;
}

/** Drive a machine with a Circular data stream. */
void
driveCircular(MigrationMachine &m, uint64_t lines, uint64_t refs,
              uint64_t base = 0x100000)
{
    CircularStream s(lines);
    for (uint64_t t = 0; t < refs; ++t)
        m.access(MemRef::load(base + s.next() * 64));
}

TEST(MigrationMachine, CountsInstructionsViaIfetch)
{
    MigrationMachine m(tinyMachine(1));
    m.access(MemRef::ifetch(0x1000));
    m.access(MemRef::load(0x2000));
    m.access(MemRef::store(0x2000));
    EXPECT_EQ(m.stats().instructions, 1u);
    EXPECT_EQ(m.stats().refs, 3u);
}

TEST(MigrationMachine, SingleCoreHasNoMigrations)
{
    MigrationMachine m(tinyMachine(1));
    driveCircular(m, 1000, 50'000);
    EXPECT_EQ(m.stats().migrations, 0u);
    EXPECT_EQ(m.controller(), nullptr);
    EXPECT_EQ(m.activeCore(), 0u);
}

TEST(MigrationMachine, L1MissCountIndependentOfMigration)
{
    // Section 2.3: L1 fills are broadcast, so the L1 miss stream is
    // the same with and without migration.
    MigrationMachine base(tinyMachine(1));
    MigrationMachine mig(tinyMachine(4));
    CircularStream s(500);
    for (uint64_t t = 0; t < 100'000; ++t) {
        const MemRef r = MemRef::load(0x100000 + s.next() * 64);
        base.access(r);
        mig.access(r);
    }
    EXPECT_EQ(base.stats().l1Misses, mig.stats().l1Misses);
}

TEST(MigrationMachine, AtMostOneModifiedCopyInvariant)
{
    MachineConfig cfg = tinyMachine(4);
    MigrationMachine m(cfg);
    // Mixed loads and stores over a set that forces migrations and
    // replication, then audit the coherence invariant.
    CircularStream s(200);
    Rng rng(3);
    for (uint64_t t = 0; t < 200'000; ++t) {
        const uint64_t addr = 0x100000 + s.next() * 64;
        if (rng.chance(0.3))
            m.access(MemRef::store(addr));
        else
            m.access(MemRef::load(addr));
        if (t % 10000 == 0) {
            ASSERT_EQ(m.countMultiModifiedLines(), 0u) << "t=" << t;
        }
    }
    EXPECT_EQ(m.countMultiModifiedLines(), 0u);
    EXPECT_GT(m.stats().migrations, 0u);
}

TEST(MigrationMachine, StoresBroadcastResetRemoteModified)
{
    // After heavy store traffic with migrations, remote copies exist
    // but never two modified ones; the update-bus counter moves.
    MigrationMachine m(tinyMachine(4));
    CircularStream s(100);
    for (uint64_t t = 0; t < 100'000; ++t)
        m.access(MemRef::store(0x100000 + s.next() * 64));
    EXPECT_GT(m.stats().updateBusStores, 0u);
    EXPECT_EQ(m.countMultiModifiedLines(), 0u);
}

TEST(MigrationMachine, WritebackOnlyForModifiedLines)
{
    // Pure loads: nothing is ever modified, so no L3 writebacks.
    MigrationMachine m(tinyMachine(1));
    driveCircular(m, 5000, 50'000);
    EXPECT_EQ(m.stats().l3Writebacks, 0u);
}

TEST(MigrationMachine, DirtyEvictionsWriteBack)
{
    MigrationMachine m(tinyMachine(1));
    CircularStream s(5000); // far exceeds the 16-line L2
    for (uint64_t t = 0; t < 50'000; ++t)
        m.access(MemRef::store(0x100000 + s.next() * 64));
    EXPECT_GT(m.stats().l3Writebacks, 0u);
}

TEST(MigrationMachine, MigrationReducesMissesOnCircular)
{
    // The paper's core claim, end to end on the real machine: a
    // Circular working-set larger than one L2 but fitting the union
    // of four gets most of its L2 misses removed.
    MachineConfig base_cfg;
    base_cfg.numCores = 1;
    MachineConfig mig_cfg; // defaults: full section 4.2 machine
    MigrationMachine base(base_cfg), mig(mig_cfg);
    // 512 KB < footprint 1.25 MB < 2 MB.
    CircularStream s1(20'000), s2(20'000);
    for (uint64_t t = 0; t < 3'000'000; ++t) {
        base.access(MemRef::load(0x40000000 + s1.next() * 64));
        mig.access(MemRef::load(0x40000000 + s2.next() * 64));
    }
    EXPECT_LT(mig.stats().l2Misses, base.stats().l2Misses / 2);
    EXPECT_GT(mig.stats().migrations, 0u);
    EXPECT_EQ(mig.countMultiModifiedLines(), 0u);
}

TEST(MigrationMachine, L2ToL2ForwardRequiresModifiedCopy)
{
    // Construct forwarding: store lines on one core (making them
    // modified), force migration, re-read them from another core.
    MigrationMachine m(tinyMachine(4));
    Rng rng(9);
    CircularStream s(64);
    for (uint64_t t = 0; t < 100'000; ++t) {
        const uint64_t addr = 0x100000 + s.next() * 64;
        m.access(rng.chance(0.5) ? MemRef::store(addr)
                                 : MemRef::load(addr));
    }
    // With migrations over a dirty working set, at least some misses
    // must have been served by remote modified copies.
    if (m.stats().migrations > 10) {
        EXPECT_GT(m.stats().l2ToL2Forwards, 0u);
    }
    // Every forward also wrote back to L3 (section 2.1).
    EXPECT_LE(m.stats().l2ToL2Forwards, m.stats().l3Writebacks);
}

TEST(MigrationMachine, RejectsUnsupportedCoreCounts)
{
    MachineConfig c = tinyMachine(1);
    c.numCores = 12;
    EXPECT_DEATH({ MigrationMachine m(c); }, "numCores");
}

TEST(MigrationMachine, EightCoreMachineRuns)
{
    MachineConfig c = tinyMachine(4);
    c.numCores = 8;
    MigrationMachine m(c);
    driveCircular(m, 400, 100'000);
    EXPECT_EQ(m.countMultiModifiedLines(), 0u);
    EXPECT_GT(m.stats().l2Accesses, 0u);
}

TEST(MigrationMachine, ResetStatsZeroesL1Counters)
{
    // A --warmup reset must restart the IL1/DL1 counters with the
    // machine's own, through both the per-reference and batched feeds.
    RefRecorder rec;
    makeWorkload("179.art")->run(rec, 50'000, 42);
    const std::vector<MemRef> &refs = rec.refs();
    const size_t half = refs.size() / 2;
    MigrationMachine m(MachineConfig{});
    for (size_t i = 0; i < half; ++i)
        m.access(refs[i]);
    m.resetStats();
    m.accessBatch(&refs[half], refs.size() - half);
    const CacheStats &il1 = m.l1().il1Stats();
    const CacheStats &dl1 = m.l1().dl1Stats();
    EXPECT_EQ(m.stats().refs, refs.size() - half);
    EXPECT_EQ(il1.accesses + dl1.accesses, m.stats().refs);
    EXPECT_EQ(il1.accesses, m.stats().instructions);
    EXPECT_EQ(il1.accesses, il1.hits + il1.misses);
    EXPECT_EQ(dl1.accesses, dl1.hits + dl1.misses);
}

TEST(MigrationMachine, ResetStatsRestartsMigrationGaps)
{
    // A warm-up reset must also restart the inter-migration gap
    // histogram: a gap measured from a pre-reset migration would be
    // computed against the zeroed reference counter and wrap around.
    MachineConfig cfg;
    cfg.l2Bytes = 64 * 1024;
    MigrationMachine m(cfg);
    CircularStream s(3000);
    auto feed = [&](uint64_t n) {
        for (uint64_t i = 0; i < n; ++i) {
            m.access(MemRef::ifetch(0x400000 + (i % 2048) * 4));
            m.access(MemRef::load(0x1000000 + s.next() * 64));
        }
    };
    feed(100'000);
    ASSERT_GT(m.stats().migrations, 0u);
    m.resetStats();
    feed(100'000);
    ASSERT_GT(m.stats().migrations, 0u);
    const obs::Histogram &gaps = m.interMigrationGapHistogram();
    EXPECT_EQ(gaps.count(), m.stats().migrations);
    EXPECT_EQ(gaps.buckets().back(), 0u) << "a gap wrapped around";
}

/** FNV-1a 64 over the eight little-endian bytes of `v`. */
uint64_t
fnvMix(uint64_t hash, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (v >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/**
 * Digest of one fault-armed machine run: every MachineStats field,
 * the final active core, the checkpointed L2 contents, and every
 * journal byte. The stream loops over 3000 lines with one store in
 * four, so the update bus, forwards and write-backs all fire.
 */
uint64_t
faultRunDigest(const MachineConfig &config, uint64_t refs)
{
    MigrationMachine m(config);
    obs::Journal journal;
    m.attachJournal(&journal);
    Rng rng(31);
    CircularStream s(3000);
    for (uint64_t i = 0; i < refs; ++i) {
        m.access(MemRef::ifetch(0x400000 + (i % 2048) * 4));
        const uint64_t addr = 0x1000000 + s.next() * 64;
        m.access(rng.below(4) == 0 ? MemRef::store(addr)
                                   : MemRef::load(addr));
    }
    const MachineStats &st = m.stats();
    uint64_t hash = 0xcbf29ce484222325ull;
    for (uint64_t v :
         {st.instructions, st.refs, st.l1Misses, st.l2Accesses,
          st.l2Misses, st.l2ToL2Forwards, st.l3Writebacks, st.migrations,
          st.updateBusStores, st.prefetchFills, st.prefetchUseful,
          st.l3Accesses, st.l3Misses, st.memoryWritebacks,
          st.coreOffEvents, st.coreOnEvents, st.dirtyLinesLost,
          st.busDrops, st.coherenceRepairs, uint64_t{m.activeCore()}})
        hash = fnvMix(hash, v);
    const MachineCheckpoint ckpt = m.checkpoint();
    for (const auto &core : ckpt.l2Contents) {
        hash = fnvMix(hash, core.size());
        for (const MachineCheckpoint::LineState &ls : core) {
            hash = fnvMix(hash, ls.line);
            hash = fnvMix(hash, ls.modified);
        }
    }
    for (const char ch : journal.renderJsonl())
        hash = fnvMix(hash, static_cast<uint64_t>(ch));
    return hash;
}

/*
 * The fault-armed paths the benchmark never runs: lost update-bus
 * broadcasts and the coherence scrubber, affinity-cache value flips
 * and dropped tags, core unplug (L2 invalidateAll) and replug, plus a
 * finite L3 and an L2 prefetcher. Recorded from the caches over the
 * virtual tag store that the SoA frame array replaced.
 */
TEST(MachineGolden, FaultPlanStreams)
{
    struct Case
    {
        const char *plan;
        bool skewed;
        uint64_t l3Bytes;
        PrefetchKind prefetch;
        uint64_t digest;
    };
    const Case cases[] = {
        {"seed=3;rate=0.01:bus_drop", true, 0, PrefetchKind::None, 0xd303b1a15ddfff04ull},
        {"seed=5;rate=0.002:flip=oe;rate=0.002:flip=tag", true, 0,
         PrefetchKind::None, 0xe9f36c19ac965b8full},
        {"seed=7;at=40000:core_off=2;at=90000:core_off=0;"
         "at=150000:core_on=2;at=210000:core_on=0",
         true, 256 * 1024, PrefetchKind::None, 0xafbf77f173b20848ull},
        {"seed=9;rate=0.005:bus_drop;rate=0.001:flip=oe;"
         "rate=0.001:flip=tag;at=60000:core_off=1;at=160000:core_on=1",
         false, 256 * 1024, PrefetchKind::Stride, 0x706faddcc0cf3648ull},
    };
    for (const Case &c : cases) {
        MachineConfig config;
        config.l2Bytes = 64 * 1024;
        config.l2Skewed = c.skewed;
        config.l3Bytes = c.l3Bytes;
        config.prefetch.kind = c.prefetch;
        config.controller.affinityCache.entries = 1024;
        config.faultPlan = c.plan;
        EXPECT_EQ(faultRunDigest(config, 150'000), c.digest) << c.plan;
    }
}

} // namespace
} // namespace xmig
