/**
 * @file
 * xmig-iron soak test: a dense FaultPlan (every fault site armed,
 * plus scheduled core churn) over more than a million references.
 * The machine must absorb all of it without tripping an audit, the
 * injected-corruption disarm rules must keep the shadow oracle from
 * false-alarming, and — at paranoid — corruption the controller did
 * NOT knowingly cause must still die loudly.
 */

#include <gtest/gtest.h>

#include "core/migration_controller.hpp"
#include "core/shadow_audit.hpp"
#include "fault/fault_injector.hpp"
#include "mem/ref.hpp"
#include "multicore/machine.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

constexpr const char *kDensePlan =
    "seed=9;"
    // Soft-error rates are per-request; the fabric rates are per
    // migration *issue* (orders of magnitude rarer), hence larger.
    // The engine-register rates keep every site's expected hit count
    // well above zero over the soak, so the every-site-fired
    // assertions below are robust to trajectory shifts, not
    // seed-lucky.
    "rate=1e-4:flip=ae;rate=1e-4:flip=delta;rate=1e-4:flip=ar;"
    "rate=5e-5:flip=oe;rate=5e-5:flip=tag;"
    "rate=0.05:mig_drop;rate=0.05:mig_delay=16;rate=5e-4:bus_drop;"
    "at=300000:core_off=1;at=600000:core_on=1;at=800000:core_off=3";

void
soak(MigrationMachine &machine, uint64_t iterations)
{
    Rng rng(123);
    CircularStream stream(20'000);
    for (uint64_t i = 0; i < iterations; ++i) {
        machine.access(MemRef::ifetch(0x400000 + (i % 4096) * 4));
        const uint64_t addr = stream.next() * 64;
        if (rng.below(4) == 0)
            machine.access(MemRef::store(addr));
        else
            machine.access(MemRef::load(addr));
    }
}

TEST(FaultSoak, DensePlanOverAMillionReferences)
{
    MachineConfig cfg;
    cfg.numCores = 4;
    cfg.faultPlan = kDensePlan;
    MigrationMachine machine(cfg);
    soak(machine, 600'000); // 1.2M references

    EXPECT_GE(machine.stats().refs, 1'000'000u);
    ASSERT_NE(machine.injector(), nullptr);
    const FaultStats &fs = machine.injector()->stats();
    // Every armed site must actually have fired.
    EXPECT_GT(fs.of(FaultSite::Ae), 0u);
    EXPECT_GT(fs.of(FaultSite::Delta), 0u);
    EXPECT_GT(fs.of(FaultSite::Ar), 0u);
    EXPECT_GT(fs.of(FaultSite::BusDrop), 0u);
    EXPECT_EQ(fs.of(FaultSite::CoreOff), 2u);
    EXPECT_EQ(fs.of(FaultSite::CoreOn), 1u);
    EXPECT_EQ(machine.stats().coreOffEvents, 2u);
    EXPECT_EQ(machine.stats().coreOnEvents, 1u);
    EXPECT_EQ(machine.stats().busDrops, fs.of(FaultSite::BusDrop));

    ASSERT_NE(machine.controller(), nullptr);
    const MigrationController &ctrl = *machine.controller();
    EXPECT_EQ(ctrl.liveCores(), 3u); // 0, 1, 2 survive
    EXPECT_EQ(ctrl.splitWays(), 2u);
    const RecoveryStats &rec = ctrl.recovery();
    EXPECT_EQ(rec.coresLost, 2u);
    EXPECT_EQ(rec.coresJoined, 1u);
    // The lossy fabric was exercised and self-healed.
    EXPECT_GT(rec.migDropped + rec.migDelayed, 0u);
    if (rec.migDropped > 0)
        EXPECT_GT(rec.migTimeouts, 0u);
    // Store corruption landed (oe/tag sites at 5e-5 over >1M refs).
    EXPECT_GT(rec.storeCorruptions + rec.storeDrops, 0u);
    // Through all of it the machine kept migrating usefully.
    EXPECT_GT(machine.stats().migrations, 0u);
}

TEST(FaultSoak, SamePlanReplaysBitIdentically)
{
    MachineConfig cfg;
    cfg.numCores = 4;
    cfg.faultPlan = kDensePlan;
    MigrationMachine a(cfg), b(cfg);
    soak(a, 500'000);
    soak(b, 500'000);
    EXPECT_EQ(a.stats().l2Misses, b.stats().l2Misses);
    EXPECT_EQ(a.stats().migrations, b.stats().migrations);
    EXPECT_EQ(a.stats().busDrops, b.stats().busDrops);
    EXPECT_EQ(a.stats().dirtyLinesLost, b.stats().dirtyLinesLost);
    EXPECT_EQ(a.stats().coherenceRepairs, b.stats().coherenceRepairs);
    EXPECT_EQ(a.activeCore(), b.activeCore());
    ASSERT_NE(a.injector(), nullptr);
    ASSERT_NE(b.injector(), nullptr);
    EXPECT_EQ(a.injector()->stats().total(),
              b.injector()->stats().total());
    EXPECT_EQ(a.controller()->recovery().migTimeouts,
              b.controller()->recovery().migTimeouts);
}

TEST(FaultSoak, InjectedCorruptionDisarmsTheShadowInsteadOfPanicking)
{
    MachineConfig cfg;
    cfg.numCores = 4;
    // Unbounded store + shadow armed: without the injected-fault
    // disarm rule the oracle would panic on the first landed flip.
    cfg.controller.boundedStore = false;
    cfg.controller.shadowAudit = true;
    cfg.faultPlan = "seed=3;rate=1e-4:flip=delta;rate=1e-4:flip=oe";
    MigrationMachine machine(cfg);
    soak(machine, 300'000);
    ASSERT_NE(machine.injector(), nullptr);
    EXPECT_GT(machine.injector()->stats().total(), 0u);
    ASSERT_NE(machine.controller()->shadowAudit(), nullptr);
    EXPECT_FALSE(machine.controller()->shadowAudit()->armed());
}

TEST(FaultSoakDeathTest, UnhandledCorruptionStillTripsAtParanoid)
{
    if (!kAuditParanoid)
        GTEST_SKIP() << "window-sum audit only runs at paranoid";
    // Corruption injected *behind the controller's back* (a tampered
    // checkpoint, not a FaultInjector hook) must still be caught: the
    // disarm rules only cover faults the injector accounted for.
    MigrationControllerConfig cfg;
    cfg.numCores = 4;
    cfg.windowX = 64;
    cfg.filterBits = 18;
    MigrationController ctrl(cfg);
    CircularStream stream(4000);
    for (int i = 0; i < 200'000; ++i)
        ctrl.onRequest(stream.next());
    ControllerCheckpoint ckpt = ctrl.checkpoint();
    ASSERT_FALSE(ckpt.engines.empty());
    ckpt.engines[0].sumIe += 12345;
    ctrl.restore(ckpt); // the record is trusted at restore time...
    EXPECT_DEATH(
        {
            for (int i = 0; i < 10'000; ++i)
                ctrl.onRequest(stream.next());
        },
        ""); // ...and the A_R window-sum audit catches it right after
}

} // namespace
} // namespace xmig
