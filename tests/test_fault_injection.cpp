/**
 * @file
 * xmig-iron unit tests: fault injector mechanics, soft-error hooks in
 * the affinity engine, update-bus loss in the machine, the watchdog,
 * and determinism parity when no fault can fire.
 */

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/shadow_audit.hpp"
#include "fault/fault_injector.hpp"
#include "fault/watchdog.hpp"
#include "mem/ref.hpp"
#include "multicore/machine.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

FaultPlan
plan(const std::string &spec)
{
    return FaultPlan::parseOrFatal(spec);
}

/** Feed `refs` L1-filtered-looking references into a machine. */
void
feedMachine(MigrationMachine &machine, uint64_t refs, uint64_t lines,
            uint64_t seed)
{
    Rng rng(seed);
    CircularStream stream(lines);
    for (uint64_t i = 0; i < refs; ++i) {
        const uint64_t addr = stream.next() * 64;
        machine.access(MemRef::ifetch(0x400000 + (i % 4096) * 4));
        if (rng.below(4) == 0)
            machine.access(MemRef::store(addr));
        else
            machine.access(MemRef::load(addr));
    }
}

TEST(FaultInjector, ScheduledFlipFiresExactlyOnce)
{
    FaultInjector fi(plan("at=3:flip=ae"));
    EXPECT_TRUE(fi.armedFor(FaultSite::Ae));
    EXPECT_FALSE(fi.armedFor(FaultSite::Delta));
    EXPECT_FALSE(fi.draw(FaultSite::Ae)); // not due yet
    fi.tick(); // now=0
    fi.tick(); // now=1
    fi.tick(); // now=2
    EXPECT_FALSE(fi.draw(FaultSite::Ae));
    fi.tick(); // now=3: the at=3 rule latches
    EXPECT_TRUE(fi.draw(FaultSite::Ae));
    EXPECT_FALSE(fi.draw(FaultSite::Ae)); // consumed
    for (int i = 0; i < 100; ++i) {
        fi.tick();
        EXPECT_FALSE(fi.draw(FaultSite::Ae));
    }
    EXPECT_EQ(fi.stats().of(FaultSite::Ae), 1u);
}

TEST(FaultInjector, RateRuleIsSeededAndReplayable)
{
    const FaultPlan p = plan("seed=11;rate=0.01:mig_drop");
    FaultInjector a(p), b(p);
    uint64_t fired = 0;
    for (int i = 0; i < 50'000; ++i) {
        a.tick();
        b.tick();
        const bool fa = a.draw(FaultSite::MigDrop);
        const bool fb = b.draw(FaultSite::MigDrop);
        ASSERT_EQ(fa, fb) << "diverged at opportunity " << i;
        fired += fa;
    }
    // ~500 expected; generous bounds, but definitely nonzero.
    EXPECT_GT(fired, 300u);
    EXPECT_LT(fired, 900u);
    // A different seed draws a different sequence.
    FaultInjector c(plan("seed=12;rate=0.01:mig_drop"));
    uint64_t diverged = 0;
    FaultInjector a2(p);
    for (int i = 0; i < 50'000; ++i) {
        c.tick();
        a2.tick();
        diverged += c.draw(FaultSite::MigDrop) !=
                    a2.draw(FaultSite::MigDrop);
    }
    EXPECT_GT(diverged, 0u);
}

TEST(FaultInjector, FlipBitFlipsExactlyOneBitInWidth)
{
    FaultInjector fi(plan("seed=4;rate=1:flip=ae"));
    for (unsigned bits : {8u, 16u, 17u, 32u}) {
        for (int trial = 0; trial < 200; ++trial) {
            const int64_t value = (trial % 2) ? -trial * 3 : trial * 7;
            const int64_t flipped = fi.flipBit(value, bits);
            EXPECT_NE(flipped, value);
            const uint64_t mask = (uint64_t{1} << bits) - 1;
            const uint64_t diff =
                (static_cast<uint64_t>(flipped) ^
                 static_cast<uint64_t>(value)) & mask;
            // Exactly one bit inside the width differs...
            EXPECT_EQ(diff & (diff - 1), 0u);
            EXPECT_NE(diff, 0u);
            // ...and the result is properly sign-extended.
            const int64_t top = int64_t{1} << (bits - 1);
            EXPECT_GE(flipped, -top);
            EXPECT_LT(flipped, top);
        }
    }
}

TEST(FaultInjector, CoreEventsDrainInFiringOrder)
{
    FaultInjector fi(plan("at=5:core_on=1;at=2:core_off=1"));
    EXPECT_TRUE(fi.armedForCoreEvents());
    std::vector<CoreFaultEvent> events;
    for (int t = 1; t <= 6; ++t)
        fi.tick();
    ASSERT_TRUE(fi.coreEventsPending());
    fi.drainCoreEvents(events);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].core, 1u);
    EXPECT_FALSE(events[0].online); // the at=2 unplug first
    EXPECT_TRUE(events[1].online);
    EXPECT_FALSE(fi.coreEventsPending());
}

TEST(FaultInjector, MigrationDelayIsReported)
{
    FaultInjector fi(plan("rate=1:mig_delay=17"));
    fi.tick();
    ASSERT_TRUE(fi.draw(FaultSite::MigDelay));
    EXPECT_EQ(fi.migrationDelay(), 17u);
}

TEST(EngineFaults, SoftErrorsLandAndDisarmTheShadow)
{
    FaultInjector fi(plan("seed=2;rate=0.001:flip=delta;"
                          "rate=0.001:flip=ar"));
    EngineConfig ec;
    ec.windowSize = 64;
    ec.shadowAudit = true;
    ec.faults = &fi;
    UnboundedOeStore store(ec.affinityBits);
    AffinityEngine engine(ec, store);
    CircularStream stream(2000);
    for (int i = 0; i < 20'000; ++i) {
        fi.tick();
        engine.reference(stream.next());
    }
    EXPECT_GT(fi.stats().of(FaultSite::Delta), 0u);
    EXPECT_GT(fi.stats().of(FaultSite::Ar), 0u);
    // The oracle must have stood down instead of panicking: injected
    // corruption is not a model divergence.
    ASSERT_NE(engine.shadow(), nullptr);
    EXPECT_FALSE(engine.shadow()->armed());
}

TEST(MachineFaults, BusDropsAreCountedAndScrubbed)
{
    MachineConfig cfg;
    cfg.numCores = 4;
    cfg.faultPlan = "seed=5;rate=0.02:bus_drop";
    MigrationMachine machine(cfg);
    feedMachine(machine, 400'000, 20'000, 77);
    EXPECT_GT(machine.stats().busDrops, 0u);
    ASSERT_NE(machine.injector(), nullptr);
    EXPECT_EQ(machine.injector()->stats().of(FaultSite::BusDrop),
              machine.stats().busDrops);
    // The periodic scrubber bounds the damage: stale modified bits
    // exist transiently but repairs must have happened.
    if (machine.stats().migrations > 0) {
        EXPECT_GT(machine.stats().coherenceRepairs, 0u);
    }
}

TEST(MachineFaults, SingleCoreIgnoresThePlan)
{
    MachineConfig cfg;
    cfg.numCores = 1;
    cfg.faultPlan = "rate=0.1:bus_drop";
    MigrationMachine machine(cfg); // warns, does not die
    EXPECT_EQ(machine.injector(), nullptr);
    feedMachine(machine, 10'000, 2000, 1);
    EXPECT_EQ(machine.stats().busDrops, 0u);
}

TEST(MachineFaults, InertAndZeroRatePlansPreserveDeterminism)
{
    MachineConfig clean;
    clean.numCores = 4;
    MigrationMachine a(clean);

    MachineConfig seeded = clean;
    seeded.faultPlan = "seed=3"; // armed injector, no rules
    MigrationMachine b(seeded);

    MachineConfig zeroed = clean;
    zeroed.faultPlan = "rate=0:mig_drop;rate=0:bus_drop;rate=0:flip=ae";
    MigrationMachine c(zeroed);

    feedMachine(a, 200'000, 20'000, 9);
    feedMachine(b, 200'000, 20'000, 9);
    feedMachine(c, 200'000, 20'000, 9);

    // No fault can ever fire, so all three runs must agree exactly.
    for (const MigrationMachine *m : {&b, &c}) {
        EXPECT_EQ(m->stats().l2Misses, a.stats().l2Misses);
        EXPECT_EQ(m->stats().migrations, a.stats().migrations);
        EXPECT_EQ(m->stats().l2ToL2Forwards,
                  a.stats().l2ToL2Forwards);
        EXPECT_EQ(m->stats().updateBusStores,
                  a.stats().updateBusStores);
        EXPECT_EQ(m->activeCore(), a.activeCore());
    }
    EXPECT_EQ(c.stats().busDrops, 0u);
}

TEST(Watchdog, DisabledWatchdogVetoesNothing)
{
    Watchdog wd(WatchdogConfig{});
    EXPECT_FALSE(wd.enabled());
    for (uint64_t now = 1; now <= 1000; ++now) {
        wd.onRequest(now, true);
        EXPECT_TRUE(wd.migrationAllowed(now));
        wd.onMigration(now);
    }
    EXPECT_EQ(wd.stats().livelocks, 0u);
    EXPECT_FALSE(wd.takeReinit());
}

TEST(Watchdog, PingPongTripsAndSuppresses)
{
    WatchdogConfig cfg;
    cfg.enabled = true;
    Watchdog wd(cfg);
    // Long enough for three trips: 4096 + 8192 requests of cooldown
    // after the first two.
    constexpr uint64_t kRequests = 4 * Watchdog::kCooldownBase;
    uint64_t completed = 0, suppressed = 0;
    for (uint64_t now = 1; now <= kRequests; ++now) {
        wd.onRequest(now, false);
        if (wd.migrationAllowed(now)) {
            wd.onMigration(now); // pathological: migrate every time
            ++completed;
        } else {
            ++suppressed;
        }
    }
    EXPECT_EQ(wd.stats().livelocks, 3u);
    EXPECT_GT(suppressed, 0u);
    EXPECT_EQ(wd.stats().suppressed, suppressed);
    // Each trip lets kPingPongLimit + 1 migrations through, then the
    // cooldown vetoes everything until it ends.
    EXPECT_EQ(completed, 3 * (Watchdog::kPingPongLimit + 1));
}

TEST(Watchdog, RepeatedTripsDoubleTheCooldownUpToTheCap)
{
    WatchdogConfig cfg;
    cfg.enabled = true;
    Watchdog wd(cfg);
    EXPECT_EQ(wd.stats().cooldownNow, Watchdog::kCooldownBase);
    // No onRequest(): the clean stretches that decay the cooldown
    // back to base are requests, so without them every trip doubles
    // it. The doubled cooldowns sum to under 2 x kCooldownCap.
    uint64_t peak = 0;
    for (uint64_t now = 1; now <= 3 * Watchdog::kCooldownCap; ++now) {
        if (wd.migrationAllowed(now))
            wd.onMigration(now);
        peak = std::max(peak, wd.stats().cooldownNow);
    }
    EXPECT_GT(wd.stats().livelocks, 1u);
    // Reached, never exceeded, the cap.
    EXPECT_EQ(peak, Watchdog::kCooldownCap);
}

TEST(Watchdog, DegenerateSplitRequestsOneReinit)
{
    WatchdogConfig cfg;
    cfg.enabled = true;
    Watchdog wd(cfg);
    constexpr uint64_t kStuck = Watchdog::kStuckWindow;
    uint64_t now = 1;
    for (; now < kStuck; ++now)
        wd.onRequest(now, true);
    EXPECT_FALSE(wd.takeReinit()); // not stuck long enough yet
    // One unsaturated request resets the run.
    wd.onRequest(now++, false);
    for (uint64_t i = 1; i < kStuck; ++i)
        wd.onRequest(now++, true);
    EXPECT_FALSE(wd.takeReinit());
    wd.onRequest(now++, true);
    EXPECT_TRUE(wd.takeReinit());
    EXPECT_FALSE(wd.takeReinit()); // one-shot
    EXPECT_EQ(wd.stats().reinits, 1u);
}

} // namespace
} // namespace xmig
