/**
 * @file
 * xmig-iron graceful-degradation tests: core hot-unplug/replug with
 * working-set re-splitting onto the survivors, forced migrations off
 * a dying core, watchdog containment of migration livelock, and the
 * machine-level scheduled core-loss path.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/migration_controller.hpp"
#include "mem/ref.hpp"
#include "multicore/machine.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

MigrationControllerConfig
baseConfig(unsigned cores)
{
    MigrationControllerConfig c;
    c.numCores = cores;
    c.windowX = 64;
    c.filterBits = 18;
    return c;
}

void
train(MigrationController &ctrl, ElementStream &stream, uint64_t refs)
{
    for (uint64_t i = 0; i < refs; ++i)
        ctrl.onRequest(stream.next());
}

/** Per-core request share over the next `probe` requests. */
std::map<unsigned, uint64_t>
targetHistogram(MigrationController &ctrl, ElementStream &stream,
                uint64_t probe)
{
    std::map<unsigned, uint64_t> hist;
    for (uint64_t i = 0; i < probe; ++i)
        ++hist[ctrl.onRequest(stream.next())];
    return hist;
}

TEST(Recovery, OfflineShrinksTheSplitToSurvivors)
{
    MigrationController ctrl(baseConfig(4));
    EXPECT_EQ(ctrl.liveCores(), 4u);
    EXPECT_EQ(ctrl.splitWays(), 4u);

    ctrl.setCoreOffline(2);
    EXPECT_EQ(ctrl.liveCores(), 3u);
    EXPECT_EQ(ctrl.splitWays(), 2u); // largest power of two <= 3
    EXPECT_EQ(ctrl.liveMask(), 0b1011u);
    EXPECT_EQ(ctrl.recovery().coresLost, 1u);
    EXPECT_GE(ctrl.recovery().resplits, 1u);
    for (unsigned s = 0; s < ctrl.splitWays(); ++s) {
        const unsigned core = ctrl.coreForSubset(s);
        EXPECT_NE(core, 2u);
        EXPECT_TRUE(ctrl.liveMask() & (uint64_t{1} << core));
    }
}

TEST(Recovery, ResplitsReconvergeToABalancedSplit)
{
    MigrationController ctrl(baseConfig(4));
    CircularStream stream(4000);
    train(ctrl, stream, 1'000'000);

    ctrl.setCoreOffline(2);
    // Bounded recovery budget: after 500k requests the 2-way splitter
    // must be retrained and spreading the circular working set over
    // exactly the two mapped survivors, roughly evenly.
    train(ctrl, stream, 500'000);
    const auto hist = targetHistogram(ctrl, stream, 8000);
    ASSERT_EQ(hist.size(), 2u);
    uint64_t lo = UINT64_MAX, hi = 0;
    for (const auto &[core, count] : hist) {
        EXPECT_NE(core, 2u);
        lo = std::min(lo, count);
        hi = std::max(hi, count);
    }
    EXPECT_GT(static_cast<double>(lo) / static_cast<double>(hi), 0.25);
}

TEST(Recovery, ActiveCoreDeathForcesAMigration)
{
    MigrationController ctrl(baseConfig(4));
    CircularStream stream(4000);
    train(ctrl, stream, 200'000);
    const unsigned active = ctrl.activeCore();
    const uint64_t migrations_before = ctrl.stats().migrations;

    ctrl.setCoreOffline(active);
    EXPECT_NE(ctrl.activeCore(), active);
    EXPECT_TRUE(ctrl.liveMask() & (uint64_t{1} << ctrl.activeCore()));
    EXPECT_EQ(ctrl.recovery().forcedMigrations, 1u);
    EXPECT_EQ(ctrl.stats().migrations, migrations_before + 1);
}

TEST(Recovery, RefusesToKillTheLastCore)
{
    MigrationController ctrl(baseConfig(4));
    ctrl.setCoreOffline(1);
    ctrl.setCoreOffline(2);
    ctrl.setCoreOffline(3);
    EXPECT_EQ(ctrl.liveCores(), 1u);
    EXPECT_EQ(ctrl.splitWays(), 1u);
    ctrl.setCoreOffline(0); // refused with a warning
    EXPECT_EQ(ctrl.liveCores(), 1u);
    EXPECT_EQ(ctrl.activeCore(), 0u);
    EXPECT_EQ(ctrl.recovery().coresLost, 3u);

    // A 1-way controller still answers requests, pinned to core 0.
    CircularStream stream(1000);
    for (int i = 0; i < 10'000; ++i)
        EXPECT_EQ(ctrl.onRequest(stream.next()), 0u);
}

TEST(Recovery, BogusTopologyEventsAreIgnored)
{
    MigrationController ctrl(baseConfig(4));
    ctrl.setCoreOffline(7);  // no such core
    ctrl.setCoreOnline(1);   // already online
    EXPECT_EQ(ctrl.liveCores(), 4u);
    EXPECT_EQ(ctrl.recovery().coresLost, 0u);
    EXPECT_EQ(ctrl.recovery().coresJoined, 0u);
    ctrl.setCoreOffline(1);
    ctrl.setCoreOffline(1); // already offline
    EXPECT_EQ(ctrl.recovery().coresLost, 1u);
}

TEST(Recovery, RejoinRestoresTheFullSplit)
{
    MigrationController ctrl(baseConfig(4));
    CircularStream stream(4000);
    train(ctrl, stream, 500'000);
    ctrl.setCoreOffline(2);
    train(ctrl, stream, 200'000);

    ctrl.setCoreOnline(2);
    EXPECT_EQ(ctrl.liveCores(), 4u);
    EXPECT_EQ(ctrl.splitWays(), 4u);
    EXPECT_EQ(ctrl.recovery().coresJoined, 1u);

    train(ctrl, stream, 2'000'000);
    const auto hist = targetHistogram(ctrl, stream, 8000);
    EXPECT_EQ(hist.size(), 4u);
}

TEST(Recovery, WatchdogBoundsPingPongLivelock)
{
    // Uniform-random streams are unsplittable: the subset flips
    // almost every other request (section 3.4), the worst case for
    // migration thrash. The watchdog must contain it.
    MigrationControllerConfig plain = baseConfig(4);
    MigrationController unguarded(plain);

    MigrationControllerConfig guarded_cfg = baseConfig(4);
    guarded_cfg.watchdog.enabled = true;
    guarded_cfg.watchdog.pingPongWindow = 256;
    guarded_cfg.watchdog.pingPongLimit = 8;
    guarded_cfg.watchdog.cooldownBase = 1024;
    MigrationController guarded(guarded_cfg);

    UniformRandomStream s1(4000), s2(4000);
    train(unguarded, s1, 200'000);
    train(guarded, s2, 200'000);

    EXPECT_GT(guarded.watchdog().stats().livelocks, 0u);
    EXPECT_GT(guarded.watchdog().stats().suppressed, 0u);
    // The filters already low-pass most of the thrash; the watchdog
    // must still cut what remains substantially (not a fixed 10x --
    // the unguarded baseline is itself only a few hundred).
    EXPECT_LT(guarded.stats().migrations,
              unguarded.stats().migrations / 2);
}

TEST(Recovery, FilterResetKeepsTheControllerConsistent)
{
    MigrationController ctrl(baseConfig(4));
    CircularStream stream(4000);
    train(ctrl, stream, 300'000);
    ctrl.resetFilters();
    EXPECT_EQ(ctrl.rootFilter().value(), 0);
    // The controller keeps answering and retrains.
    train(ctrl, stream, 300'000);
    const auto hist = targetHistogram(ctrl, stream, 8000);
    EXPECT_GE(hist.size(), 2u);
}

TEST(Recovery, MachineAppliesScheduledCoreLoss)
{
    MachineConfig cfg;
    cfg.numCores = 4;
    // Kill core 0: it starts active, so its L2 is guaranteed to hold
    // modified lines by the time the event lands.
    cfg.faultPlan = "seed=1;at=50000:core_off=0";
    MigrationMachine machine(cfg);

    Rng rng(5);
    CircularStream stream(20'000);
    for (uint64_t i = 0; i < 200'000; ++i) {
        const uint64_t addr = stream.next() * 64;
        machine.access(MemRef::ifetch(0x400000 + (i % 4096) * 4));
        if (rng.below(4) == 0)
            machine.access(MemRef::store(addr));
        else
            machine.access(MemRef::load(addr));
    }

    EXPECT_EQ(machine.stats().coreOffEvents, 1u);
    ASSERT_NE(machine.controller(), nullptr);
    EXPECT_EQ(machine.controller()->liveCores(), 3u);
    EXPECT_FALSE(machine.controller()->liveMask() & (1u << 0));
    EXPECT_NE(machine.activeCore(), 0u);
    // The unplugged core's L2 was written to before the event, so
    // dirty lines were lost with it.
    EXPECT_GT(machine.stats().dirtyLinesLost, 0u);
    // The machine and its controller agree on the active core.
    EXPECT_EQ(machine.activeCore(),
              machine.controller()->activeCore());
}

TEST(Recovery, RestoredDegradedControllerAccumulatesRecoveryStats)
{
    // A checkpoint taken between core_off and core_on carries the
    // degraded mask *and* the recovery counters; churn after restore
    // must accumulate on top of the restored values, not reset them.
    MigrationController a(baseConfig(4));
    CircularStream stream(4000);
    train(a, stream, 300'000);
    a.setCoreOffline(2);
    train(a, stream, 100'000);
    const ControllerCheckpoint ckpt = a.checkpoint();

    MigrationController b(baseConfig(4));
    b.restore(ckpt);
    EXPECT_EQ(b.liveMask(), 0b1011u);
    EXPECT_EQ(b.recovery().coresLost, 1u);

    // Further churn on the restored controller: lose another core,
    // then complete the original pair's rejoin.
    b.setCoreOffline(3);
    b.setCoreOnline(2);
    EXPECT_EQ(b.recovery().coresLost, 2u);
    EXPECT_EQ(b.recovery().coresJoined, 1u);
    EXPECT_EQ(b.liveCores(), 3u); // 0, 1, 2
    EXPECT_EQ(b.splitWays(), 2u);
    EXPECT_GE(b.recovery().resplits, ckpt.recovery.resplits);

    // And it keeps serving requests over the survivors.
    const auto hist = targetHistogram(b, stream, 8000);
    for (const auto &[core, count] : hist)
        EXPECT_NE(core, 3u);
}

TEST(Recovery, MachineRestoredMidChurnCompletesTheRejoin)
{
    // Machine-level mirror of the controller test above: checkpoint
    // while a scheduled core_off/core_on pair is half-applied, restore
    // into a fresh machine whose injector carries the matching
    // core_on, and check the rejoin completes on restored state.
    MachineConfig cfg;
    cfg.numCores = 4;
    cfg.faultPlan = "seed=6;at=40000:core_off=2";
    MigrationMachine machine(cfg);
    CircularStream stream(20'000);
    for (uint64_t i = 0; i < 60'000; ++i) {
        machine.access(MemRef::ifetch(0x400000 + (i % 4096) * 4));
        machine.access(MemRef::load(stream.next() * 64));
    }
    ASSERT_EQ(machine.stats().coreOffEvents, 1u);
    const MachineCheckpoint ckpt = machine.checkpoint();
    ASSERT_EQ(ckpt.controller.liveMask, 0b1011u);

    MachineConfig cfg2 = cfg;
    cfg2.faultPlan = "seed=6;at=30000:core_on=2";
    MigrationMachine restored(cfg2);
    restored.restore(ckpt);
    ASSERT_NE(restored.controller(), nullptr);
    EXPECT_EQ(restored.controller()->liveCores(), 3u);

    for (uint64_t i = 0; i < 60'000; ++i) {
        restored.access(MemRef::ifetch(0x400000 + (i % 4096) * 4));
        restored.access(MemRef::load(stream.next() * 64));
    }
    EXPECT_EQ(restored.stats().coreOffEvents, 1u); // restored value
    EXPECT_EQ(restored.stats().coreOnEvents, 1u);
    EXPECT_EQ(restored.controller()->liveCores(), 4u);
    EXPECT_EQ(restored.controller()->splitWays(), 4u);
    EXPECT_EQ(restored.controller()->recovery().coresLost, 1u);
    EXPECT_EQ(restored.controller()->recovery().coresJoined, 1u);
    EXPECT_EQ(restored.countMultiModifiedLines(), 0u);
}

TEST(Recovery, MachineSurvivesChurnAndRejoin)
{
    MachineConfig cfg;
    cfg.numCores = 4;
    cfg.faultPlan =
        "seed=2;at=50000:core_off=1;at=80000:core_off=3;"
        "at=120000:core_on=1";
    MigrationMachine machine(cfg);
    CircularStream stream(20'000);
    for (uint64_t i = 0; i < 200'000; ++i) {
        machine.access(MemRef::ifetch(0x400000 + (i % 4096) * 4));
        machine.access(MemRef::load(stream.next() * 64));
    }
    EXPECT_EQ(machine.stats().coreOffEvents, 2u);
    EXPECT_EQ(machine.stats().coreOnEvents, 1u);
    ASSERT_NE(machine.controller(), nullptr);
    EXPECT_EQ(machine.controller()->liveCores(), 3u); // 0, 1, 2
    EXPECT_EQ(machine.controller()->recovery().coresLost, 2u);
    EXPECT_EQ(machine.controller()->recovery().coresJoined, 1u);
    // Only the 4-live -> 3-live drop changed the split arity (4 -> 2);
    // 3 -> 2 live and the rejoin to 3 keep it at 2 ways.
    EXPECT_EQ(machine.controller()->recovery().resplits, 1u);
    EXPECT_EQ(machine.controller()->splitWays(), 2u);
}

TEST(Recovery, RepeatedIgnoredCoreEventsWarnOncePerMachine)
{
    // Generated fault plans repeat redundant churn and name missing
    // cores on purpose: each kind of ignored event warns once per
    // machine, however often it fires, and only applied events count.
    MachineConfig cfg;
    cfg.numCores = 4;
    cfg.faultPlan =
        "seed=3;at=1000:core_off=1;at=2000:core_off=1;"
        "at=3000:core_off=1;at=4000:core_on=2;at=5000:core_on=2;"
        "at=6000:core_off=9;at=7000:core_off=9";
    testing::internal::CaptureStderr();
    MigrationMachine machine(cfg);
    CircularStream stream(2'000);
    for (uint64_t i = 0; i < 5'000; ++i) {
        machine.access(MemRef::ifetch(0x400000 + (i % 4096) * 4));
        machine.access(MemRef::load(stream.next() * 64));
    }
    const std::string err = testing::internal::GetCapturedStderr();
    const auto count = [&](const std::string &needle) {
        size_t n = 0;
        for (size_t at = err.find(needle); at != std::string::npos;
             at = err.find(needle, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count("warn:"), 3u) << err;
    EXPECT_EQ(count("core_off for core 1 ignored"), 1u) << err;
    EXPECT_EQ(count("core_on for core 2 ignored"), 1u) << err;
    EXPECT_EQ(count("names core 9"), 1u) << err;
    EXPECT_EQ(machine.stats().coreOffEvents, 1u);
    EXPECT_EQ(machine.stats().coreOnEvents, 0u);
}

} // namespace
} // namespace xmig
