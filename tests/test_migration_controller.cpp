/**
 * @file
 * Unit tests for the migration controller (section 3).
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "core/migration_controller.hpp"
#include "util/hashing.hpp"
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

TEST(MigrationController, StartsOnCoreZero)
{
    MigrationController ctrl(baseConfig(4));
    EXPECT_EQ(ctrl.activeCore(), 0u);
    EXPECT_EQ(ctrl.subset(), 0u);
}

TEST(MigrationController, TargetsStayInRange)
{
    for (unsigned cores : {2u, 4u}) {
        MigrationController ctrl(baseConfig(cores));
        UniformRandomStream s(2000);
        for (int t = 0; t < 100'000; ++t) {
            const unsigned target = ctrl.onRequest(s.next());
            ASSERT_LT(target, cores);
            ASSERT_EQ(target, ctrl.activeCore());
        }
    }
}

TEST(MigrationController, MigrationsMatchSubsetChanges)
{
    MigrationController ctrl(baseConfig(4));
    UniformRandomStream s(2000);
    unsigned prev = ctrl.activeCore();
    uint64_t changes = 0;
    for (int t = 0; t < 100'000; ++t) {
        const unsigned target = ctrl.onRequest(s.next());
        if (target != prev)
            ++changes;
        prev = target;
    }
    EXPECT_EQ(ctrl.stats().migrations, changes);
    EXPECT_EQ(ctrl.stats().requests, 100'000u);
}

TEST(MigrationController, FourCoresAllUsedOnCircular)
{
    MigrationControllerConfig c = baseConfig(4);
    c.windowX = 128;
    MigrationController ctrl(c);
    CircularStream s(4000);
    for (int t = 0; t < 2'000'000; ++t)
        ctrl.onRequest(s.next());
    std::set<unsigned> used;
    for (int t = 0; t < 8000; ++t)
        used.insert(ctrl.onRequest(s.next()));
    EXPECT_EQ(used.size(), 4u);
}

TEST(MigrationController, L2FilteringBlocksMigrations)
{
    MigrationControllerConfig c = baseConfig(4);
    c.l2Filtering = true;
    MigrationController ctrl(c);
    UniformRandomStream s(2000);
    // All requests hit L2: filters never update, no migrations.
    for (int t = 0; t < 100'000; ++t)
        ctrl.onRequest(s.next(), /*l2_miss=*/false);
    EXPECT_EQ(ctrl.stats().migrations, 0u);
    EXPECT_EQ(ctrl.stats().filterUpdates, 0u);
}

TEST(MigrationController, L2FilteringAllowsMigrationsOnMisses)
{
    MigrationControllerConfig c = baseConfig(4);
    c.l2Filtering = true;
    MigrationController ctrl(c);
    UniformRandomStream s(2000);
    for (int t = 0; t < 100'000; ++t)
        ctrl.onRequest(s.next(), /*l2_miss=*/true);
    EXPECT_GT(ctrl.stats().migrations, 0u);
}

TEST(MigrationController, BoundedStoreSuppressesHugeWorkingSets)
{
    // Section 4.2: with a finite affinity cache, a working-set far
    // larger than the cache sees mostly misses, each forcing
    // A_e = 0, so the filter barely moves and migrations are rare.
    MigrationControllerConfig c = baseConfig(4);
    c.l2Filtering = false;
    c.boundedStore = true;
    c.affinityCache.entries = 1024;
    c.affinityCache.ways = 4;
    MigrationController bounded(c);

    MigrationControllerConfig u = c;
    u.boundedStore = false;
    MigrationController unbounded(u);

    CircularStream s1(200'000), s2(200'000); // 100k+ sampled lines
    for (int t = 0; t < 1'500'000; ++t) {
        bounded.onRequest(s1.next());
        unbounded.onRequest(s2.next());
    }
    EXPECT_LT(bounded.stats().migrations,
              unbounded.stats().migrations / 2 + 10);
}

TEST(MigrationController, TwoCoreConfigSplitsCircular)
{
    MigrationControllerConfig c = baseConfig(2);
    c.windowX = 100;
    MigrationController ctrl(c);
    CircularStream s(4000);
    for (int t = 0; t < 1'000'000; ++t)
        ctrl.onRequest(s.next());
    std::set<unsigned> used;
    for (int t = 0; t < 4000; ++t)
        used.insert(ctrl.onRequest(s.next()));
    EXPECT_EQ(used.size(), 2u);
}

TEST(MigrationController, RejectsBadCoreCount)
{
    MigrationControllerConfig c = baseConfig(4);
    c.numCores = 3;
    EXPECT_DEATH({ MigrationController ctrl(c); }, "power-of-two");
}

TEST(MigrationController, EightCoreSplitterUsesAllCores)
{
    MigrationControllerConfig c = baseConfig(8);
    c.numCores = 8;
    c.windowX = 128;
    MigrationController ctrl(c);
    CircularStream s(8000);
    for (int t = 0; t < 4'000'000; ++t)
        ctrl.onRequest(s.next());
    std::set<unsigned> used;
    for (int t = 0; t < 16000; ++t)
        used.insert(ctrl.onRequest(s.next()));
    // The recursive splitter should activate most of the 8 subsets.
    EXPECT_GE(used.size(), 6u);
    for (unsigned core : used)
        EXPECT_LT(core, 8u);
}

TEST(MigrationController, AffinityOfReportsTrackedLines)
{
    MigrationController ctrl(baseConfig(4));
    ctrl.onRequest(31); // H(31)=0: even, goes to a Y engine
    ctrl.onRequest(1);  // H(1)=1: odd, goes to X
    // affinityOf consults the root (X) engine and the shared store.
    EXPECT_TRUE(ctrl.affinityOf(1).has_value());
}

TEST(MigrationController, AffinityOfIsRootAffinityAtEightCores)
{
    // affinityOf reports A_e = O_e - Delta as the root sees it, at
    // every arity; the raw stored O_e differs from it by Delta.
    MigrationController ctrl(baseConfig(8));
    CircularStream s(2000);
    for (int t = 0; t < 200'000; ++t)
        ctrl.onRequest(s.next());
    ASSERT_NE(ctrl.rootEngine().delta(), 0);
    uint64_t checked = 0;
    for (uint64_t line = 0; line < 2000; ++line) {
        // At depth 3, residues with (H + 2) % 3 == 0 drive the root.
        if ((hashMod31(line) + 2) % 3 != 0)
            continue;
        const std::optional<int64_t> want =
            ctrl.rootEngine().affinityOf(line);
        ASSERT_TRUE(want.has_value()) << "line " << line;
        EXPECT_EQ(ctrl.affinityOf(line), want) << "line " << line;
        ++checked;
    }
    EXPECT_GT(checked, 500u);
}

} // namespace
} // namespace xmig
