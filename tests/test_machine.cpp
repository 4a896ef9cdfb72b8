/**
 * @file
 * Unit and invariant tests for the migration-mode multi-core machine
 * (section 2 semantics).
 */

#include <gtest/gtest.h>

#include "multicore/machine.hpp"
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

} // namespace
} // namespace xmig
