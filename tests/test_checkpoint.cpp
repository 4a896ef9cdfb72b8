/**
 * @file
 * xmig-iron checkpoint/restore tests: engine, controller, and machine
 * state capture; continuation equivalence; and death tests proving
 * that a tampered checkpoint is caught by the paranoid audits rather
 * than trusted silently.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/engine.hpp"
#include "core/shadow_audit.hpp"
#include "core/migration_controller.hpp"
#include "mem/ref.hpp"
#include "multicore/machine.hpp"
#include "util/contracts.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

EngineConfig
engineConfig()
{
    EngineConfig ec;
    ec.windowSize = 64;
    return ec;
}

MigrationControllerConfig
controllerConfig()
{
    MigrationControllerConfig c;
    c.numCores = 4;
    c.windowX = 64;
    c.filterBits = 18;
    return c;
}

TEST(EngineCheckpoint, RestoredEngineContinuesIdentically)
{
    const EngineConfig ec = engineConfig();
    UnboundedOeStore store_a(ec.affinityBits);
    AffinityEngine a(ec, store_a);
    CircularStream s1(2000);
    for (int i = 0; i < 100'000; ++i)
        a.reference(s1.next());

    const EngineCheckpoint ckpt = a.checkpoint();
    EXPECT_EQ(ckpt.references, 100'000u);
    EXPECT_EQ(ckpt.delta, a.delta());
    EXPECT_EQ(ckpt.windowAffinity, a.windowAffinity());
    ASSERT_LE(ckpt.window.size(), ec.windowSize);

    // Rebuild engine + store state in a fresh pair and continue both
    // with the same stream suffix: every outcome must agree.
    UnboundedOeStore store_b(ec.affinityBits);
    std::vector<OeEntrySnapshot> entries;
    store_a.snapshotEntries(entries);
    store_b.restoreEntries(entries, store_a.stats());
    AffinityEngine b(ec, store_b);
    b.restore(ckpt);

    CircularStream s2(2000);
    for (int i = 0; i < 100'000; ++i)
        s2.next(); // advance to the checkpoint position
    for (int i = 0; i < 100'000; ++i) {
        const uint64_t line = s1.next();
        ASSERT_EQ(s2.next(), line);
        const RefOutcome oa = a.reference(line);
        const RefOutcome ob = b.reference(line);
        ASSERT_EQ(oa.ae, ob.ae) << "diverged at ref " << i;
        ASSERT_EQ(a.delta(), b.delta());
        ASSERT_EQ(a.windowAffinity(), b.windowAffinity());
    }
}

TEST(EngineCheckpoint, RestoreDisarmsTheShadowOracle)
{
    EngineConfig ec = engineConfig();
    ec.shadow = ShadowMode::Armed;
    UnboundedOeStore store(ec.affinityBits);
    AffinityEngine engine(ec, store);
    CircularStream s(500);
    for (int i = 0; i < 10'000; ++i)
        engine.reference(s.next());
    ASSERT_NE(engine.shadow(), nullptr);
    EXPECT_TRUE(engine.shadow()->armed());
    engine.restore(engine.checkpoint());
    EXPECT_FALSE(engine.shadow()->armed());
    // Still consistent: keeps running without tripping any audit.
    for (int i = 0; i < 10'000; ++i)
        engine.reference(s.next());
}

TEST(ControllerCheckpoint, RestoredControllerContinuesIdentically)
{
    const MigrationControllerConfig cfg = controllerConfig();
    MigrationController a(cfg);
    CircularStream s1(4000);
    for (int i = 0; i < 300'000; ++i)
        a.onRequest(s1.next());

    const ControllerCheckpoint ckpt = a.checkpoint();
    EXPECT_EQ(ckpt.numCores, 4u);
    EXPECT_EQ(ckpt.splitWays, 4u);
    EXPECT_EQ(ckpt.activeCore, a.activeCore());
    EXPECT_EQ(ckpt.stats.requests, 300'000u);

    MigrationController b(cfg);
    b.restore(ckpt);
    EXPECT_EQ(b.activeCore(), a.activeCore());
    EXPECT_EQ(b.subset(), a.subset());
    EXPECT_EQ(b.stats().migrations, a.stats().migrations);

    CircularStream s2(4000);
    for (int i = 0; i < 300'000; ++i)
        s2.next();
    for (int i = 0; i < 200'000; ++i) {
        const uint64_t line = s1.next();
        ASSERT_EQ(s2.next(), line);
        ASSERT_EQ(a.onRequest(line), b.onRequest(line))
            << "diverged at request " << i;
    }
    EXPECT_EQ(a.stats().transitions, b.stats().transitions);
    EXPECT_EQ(a.stats().migrations, b.stats().migrations);
    EXPECT_EQ(a.stats().filterUpdates, b.stats().filterUpdates);
}

TEST(ControllerCheckpoint, CapturesDegradedTopology)
{
    const MigrationControllerConfig cfg = controllerConfig();
    MigrationController a(cfg);
    CircularStream s(4000);
    for (int i = 0; i < 200'000; ++i)
        a.onRequest(s.next());
    a.setCoreOffline(2);
    for (int i = 0; i < 100'000; ++i)
        a.onRequest(s.next());

    const ControllerCheckpoint ckpt = a.checkpoint();
    EXPECT_EQ(ckpt.splitWays, 2u);
    EXPECT_EQ(ckpt.liveMask, 0b1011u);
    EXPECT_EQ(ckpt.recovery.coresLost, 1u);

    MigrationController b(cfg);
    b.restore(ckpt);
    EXPECT_EQ(b.liveCores(), 3u);
    EXPECT_EQ(b.splitWays(), 2u);
    EXPECT_EQ(b.recovery().coresLost, 1u);
    for (unsigned sub = 0; sub < 2; ++sub)
        EXPECT_EQ(b.coreForSubset(sub), a.coreForSubset(sub));
    for (int i = 0; i < 50'000; ++i) {
        const uint64_t line = s.next();
        ASSERT_EQ(a.onRequest(line), b.onRequest(line));
    }
}

TEST(ControllerCheckpoint, BoundedStoreRoundTrips)
{
    MigrationControllerConfig cfg = controllerConfig();
    cfg.boundedStore = true;
    cfg.affinityCache.entries = 1024;
    cfg.affinityCache.ways = 4;
    cfg.affinityCache.skewed = true;
    MigrationController a(cfg);
    // Working set small enough to live in the 1024-entry cache, so the
    // splitter actually converges to a multi-core split.
    CircularStream s1(800);
    for (int i = 0; i < 300'000; ++i)
        a.onRequest(s1.next());

    const ControllerCheckpoint ckpt = a.checkpoint();
    EXPECT_EQ(ckpt.storeStats.lookups, a.store().stats().lookups);

    MigrationController b(cfg);
    b.restore(ckpt);
    // A skewed-cache restore may shed conflict victims (greedy
    // re-insertion into a skewed cache can displace already-restored
    // lines), so bit-identity is not guaranteed; what must hold is
    // that the control plane restored exactly and the controller
    // keeps running consistently — every audit stays green.
    EXPECT_EQ(b.activeCore(), a.activeCore());
    EXPECT_EQ(b.stats().migrations, a.stats().migrations);
    CircularStream s2(800);
    for (int i = 0; i < 300'000; ++i)
        s2.next();
    std::set<unsigned> used;
    for (int i = 0; i < 200'000; ++i)
        used.insert(b.onRequest(s2.next()));
    EXPECT_GE(used.size(), 2u);
}

TEST(MachineCheckpoint, RestoreIsDeterministic)
{
    MachineConfig cfg;
    cfg.numCores = 4;
    MigrationMachine a(cfg);
    CircularStream s(20'000);
    for (uint64_t i = 0; i < 150'000; ++i) {
        a.access(MemRef::ifetch(0x400000 + (i % 4096) * 4));
        const uint64_t addr = s.next() * 64;
        a.access(i % 4 == 0 ? MemRef::store(addr)
                            : MemRef::load(addr));
    }
    const MachineCheckpoint ckpt = a.checkpoint();
    EXPECT_EQ(ckpt.stats.refs, a.stats().refs);
    EXPECT_EQ(ckpt.activeCore, a.activeCore());
    ASSERT_EQ(ckpt.l2Contents.size(), 4u);
    EXPECT_TRUE(ckpt.hasController);

    // Two fresh machines restored from the same record and fed the
    // same suffix must stay bit-identical to each other.
    MigrationMachine b(cfg), c(cfg);
    b.restore(ckpt);
    c.restore(ckpt);
    EXPECT_EQ(b.activeCore(), a.activeCore());
    EXPECT_EQ(b.stats().l2Misses, a.stats().l2Misses);
    EXPECT_EQ(b.countMultiModifiedLines(), 0u);

    CircularStream sb(20'000), sc(20'000);
    for (uint64_t i = 0; i < 150'000; ++i) {
        sb.next();
        sc.next();
    }
    for (uint64_t i = 0; i < 100'000; ++i) {
        const MemRef ifetch =
            MemRef::ifetch(0x400000 + ((i + 150'000) % 4096) * 4);
        b.access(ifetch);
        c.access(ifetch);
        const uint64_t addr = sb.next() * 64;
        ASSERT_EQ(sc.next() * 64, addr);
        const MemRef data = (i + 150'000) % 4 == 0
                                ? MemRef::store(addr)
                                : MemRef::load(addr);
        b.access(data);
        c.access(data);
    }
    EXPECT_EQ(b.stats().l2Misses, c.stats().l2Misses);
    EXPECT_EQ(b.stats().migrations, c.stats().migrations);
    EXPECT_EQ(b.activeCore(), c.activeCore());
    EXPECT_EQ(b.countMultiModifiedLines(), 0u);
}

TEST(ControllerCheckpoint, RestoredDegradedControllerCanRejoin)
{
    // Checkpoint *between* a core_off and its core_on: the restored
    // controller must come back with the degraded mask and accept
    // the rejoin later, accumulating recovery counters on top of the
    // restored values.
    const MigrationControllerConfig cfg = controllerConfig();
    MigrationController a(cfg);
    CircularStream s(4000);
    for (int i = 0; i < 200'000; ++i)
        a.onRequest(s.next());
    a.setCoreOffline(1);
    for (int i = 0; i < 100'000; ++i)
        a.onRequest(s.next());

    const ControllerCheckpoint ckpt = a.checkpoint();
    ASSERT_EQ(ckpt.liveMask, 0b1101u);
    ASSERT_EQ(ckpt.recovery.coresLost, 1u);
    ASSERT_EQ(ckpt.recovery.coresJoined, 0u);

    MigrationController b(cfg);
    b.restore(ckpt);
    ASSERT_EQ(b.liveCores(), 3u);
    b.setCoreOnline(1);
    EXPECT_EQ(b.liveCores(), 4u);
    EXPECT_EQ(b.splitWays(), 4u);
    EXPECT_EQ(b.recovery().coresLost, 1u) << "restored value kept";
    EXPECT_EQ(b.recovery().coresJoined, 1u);
    EXPECT_GE(b.recovery().resplits, ckpt.recovery.resplits + 1);
    // Keeps running with every audit green on the rejoined split.
    std::set<unsigned> used;
    for (int i = 0; i < 200'000; ++i)
        used.insert(b.onRequest(s.next()));
    EXPECT_GE(used.size(), 2u);
}

TEST(MachineCheckpoint, RestoreIntoDegradedLiveMask)
{
    // The fuzz harness's checkpoint oracle in miniature, pinned to
    // the nastiest spot: the checkpoint lands while a core is
    // unplugged, and the restored machines later accept its rejoin.
    MachineConfig cfg;
    cfg.numCores = 4;
    cfg.faultPlan = "seed=4;at=60000:core_off=1";
    MigrationMachine a(cfg);
    CircularStream s(20'000);
    for (uint64_t i = 0; i < 75'000; ++i) {
        a.access(MemRef::ifetch(0x400000 + (i % 4096) * 4));
        const uint64_t addr = s.next() * 64;
        a.access(i % 4 == 0 ? MemRef::store(addr)
                            : MemRef::load(addr));
    }
    ASSERT_EQ(a.stats().coreOffEvents, 1u);

    const MachineCheckpoint ckpt = a.checkpoint();
    ASSERT_TRUE(ckpt.hasController);
    ASSERT_EQ(ckpt.controller.liveMask, 0b1101u);
    ASSERT_EQ(ckpt.controller.splitWays, 2u);

    // Restore into fresh machines whose (fresh, tick-0) injectors
    // schedule the rejoin: a restore into a *degraded* live mask
    // that later heals back to the full split.
    MachineConfig cfg2 = cfg;
    cfg2.faultPlan = "seed=4;at=50000:core_on=1";
    MigrationMachine b(cfg2), c(cfg2);
    b.restore(ckpt);
    c.restore(ckpt);
    ASSERT_EQ(b.controller()->liveCores(), 3u);
    ASSERT_EQ(b.controller()->splitWays(), 2u);
    EXPECT_EQ(b.activeCore(), a.activeCore());

    CircularStream sb(20'000), sc(20'000);
    for (uint64_t i = 0; i < 75'000; ++i) {
        sb.next();
        sc.next();
    }
    for (uint64_t i = 75'000; i < 150'000; ++i) {
        const MemRef ifetch =
            MemRef::ifetch(0x400000 + (i % 4096) * 4);
        b.access(ifetch);
        c.access(ifetch);
        const uint64_t addr = sb.next() * 64;
        ASSERT_EQ(sc.next() * 64, addr);
        const MemRef data = i % 4 == 0 ? MemRef::store(addr)
                                       : MemRef::load(addr);
        b.access(data);
        c.access(data);
    }

    // The rejoin fired on both restored machines...
    EXPECT_EQ(b.stats().coreOnEvents, 1u);
    EXPECT_EQ(b.controller()->liveCores(), 4u);
    EXPECT_EQ(b.controller()->splitWays(), 4u);
    // ...and they stayed bit-identical to each other throughout.
    EXPECT_EQ(b.stats().l2Misses, c.stats().l2Misses);
    EXPECT_EQ(b.stats().migrations, c.stats().migrations);
    EXPECT_EQ(b.stats().coreOnEvents, c.stats().coreOnEvents);
    EXPECT_EQ(b.activeCore(), c.activeCore());
    EXPECT_EQ(b.countMultiModifiedLines(), 0u);
    EXPECT_EQ(c.countMultiModifiedLines(), 0u);
}

TEST(MachineCheckpoint, SingleCoreMachineRoundTrips)
{
    MachineConfig cfg;
    cfg.numCores = 1;
    MigrationMachine a(cfg);
    CircularStream s(20'000);
    for (uint64_t i = 0; i < 100'000; ++i)
        a.access(MemRef::load(s.next() * 64));
    const MachineCheckpoint ckpt = a.checkpoint();
    EXPECT_FALSE(ckpt.hasController);
    MigrationMachine b(cfg);
    b.restore(ckpt);
    EXPECT_EQ(b.stats().l2Misses, a.stats().l2Misses);
    EXPECT_EQ(b.activeCore(), 0u);
}

// ---- tamper detection -------------------------------------------------

using CheckpointDeathTest = ::testing::Test;

TEST(CheckpointDeathTest, OversizedWindowTripsTheContract)
{
    const EngineConfig ec = engineConfig();
    UnboundedOeStore store(ec.affinityBits);
    AffinityEngine engine(ec, store);
    CircularStream s(500);
    for (int i = 0; i < 10'000; ++i)
        engine.reference(s.next());
    EngineCheckpoint ckpt = engine.checkpoint();
    ckpt.window.resize(ec.windowSize + 7); // forged |R|
    EXPECT_DEATH(engine.restore(ckpt), "exceeds capacity");
}

TEST(CheckpointDeathTest, TamperedSumIeTripsTheParanoidAudit)
{
    if (!kAuditParanoid)
        GTEST_SKIP() << "A_R-drift audit only runs at paranoid";
    const EngineConfig ec = engineConfig();
    UnboundedOeStore store(ec.affinityBits);
    AffinityEngine engine(ec, store);
    CircularStream s(500);
    for (int i = 0; i < 10'000; ++i)
        engine.reference(s.next());
    EngineCheckpoint ckpt = engine.checkpoint();
    ckpt.sumIe += 999; // corrupt the cached window sum
    engine.restore(ckpt); // trusted here...
    EXPECT_DEATH(
        {
            for (int i = 0; i < 1000; ++i)
                engine.reference(s.next());
        },
        ""); // ...caught by the A_R window-sum audit on the next refs
}

} // namespace
} // namespace xmig
