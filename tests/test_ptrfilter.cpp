/**
 * @file
 * Tests for pointer-load marking and pointer-load filtering
 * (section 6 extension).
 */

#include <gtest/gtest.h>

#include "cache/l1_filter.hpp"
#include "core/migration_controller.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

TEST(PointerLoads, FactorySetsFlag)
{
    const MemRef r = MemRef::pointerLoad(0x40);
    EXPECT_TRUE(r.pointer);
    EXPECT_EQ(r.type, RefType::Load);
    EXPECT_FALSE(MemRef::load(0x40).pointer);
    EXPECT_FALSE(MemRef::load(0x40) == r);
}

TEST(PointerLoads, FlagSurvivesL1Filtering)
{
    struct CaptureSink : LineSink
    {
        std::vector<LineEvent> events;
        void onLine(const LineEvent &e) override { events.push_back(e); }
    } sink;
    L1FilterConfig c;
    c.il1Bytes = 4 * 64;
    c.dl1Bytes = 4 * 64;
    L1Filter filter(c, sink);
    filter.access(MemRef::pointerLoad(0x1000));
    filter.access(MemRef::load(0x2000));
    ASSERT_EQ(sink.events.size(), 2u);
    EXPECT_TRUE(sink.events[0].pointer);
    EXPECT_FALSE(sink.events[1].pointer);
}

TEST(PointerLoads, LinkedStructureKernelsEmitThem)
{
    for (const char *name : {"181.mcf", "health", "bisort", "bh"}) {
        auto w = makeWorkload(name);
        struct PtrCounter : RefSink
        {
            uint64_t ptr = 0, other = 0;
            void
            access(const MemRef &r) override
            {
                (r.pointer ? ptr : other) += 1;
            }
        } counter;
        w->run(counter, 200'000);
        EXPECT_GT(counter.ptr, 0u) << name;
    }
    // Pure array scanners emit none.
    for (const char *name : {"179.art", "171.swim"}) {
        auto w = makeWorkload(name);
        struct PtrCounter : RefSink
        {
            uint64_t ptr = 0;
            void
            access(const MemRef &r) override
            {
                ptr += r.pointer ? 1 : 0;
            }
        } counter;
        w->run(counter, 200'000);
        EXPECT_EQ(counter.ptr, 0u) << name;
    }
}

TEST(PointerLoadFilter, BlocksNonPointerRequests)
{
    MigrationControllerConfig c;
    c.numCores = 4;
    c.windowX = 64;
    c.filterBits = 16;
    c.pointerLoadFilter = true;
    MigrationController ctrl(c);
    UniformRandomStream s(2000);
    for (int t = 0; t < 100'000; ++t)
        ctrl.onRequest(s.next(), true, /*pointer_load=*/false);
    EXPECT_EQ(ctrl.stats().migrations, 0u);
    EXPECT_EQ(ctrl.stats().filterUpdates, 0u);
    // Pointer-load requests pass through.
    for (int t = 0; t < 100'000; ++t)
        ctrl.onRequest(s.next(), true, /*pointer_load=*/true);
    EXPECT_GT(ctrl.stats().migrations, 0u);
}

TEST(PointerLoadFilter, ComposesWithL2Filtering)
{
    MigrationControllerConfig c;
    c.numCores = 2;
    c.windowX = 64;
    c.filterBits = 16;
    c.pointerLoadFilter = true;
    c.l2Filtering = true;
    MigrationController ctrl(c);
    UniformRandomStream s(2000);
    // Pointer loads that hit L2 must still be filtered out.
    for (int t = 0; t < 50'000; ++t)
        ctrl.onRequest(s.next(), /*l2_miss=*/false, true);
    EXPECT_EQ(ctrl.stats().filterUpdates, 0u);
    // Both conditions met: updates flow.
    for (int t = 0; t < 50'000; ++t)
        ctrl.onRequest(s.next(), true, true);
    EXPECT_GT(ctrl.stats().filterUpdates, 0u);
}

} // namespace
} // namespace xmig
