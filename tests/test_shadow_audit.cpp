/**
 * @file
 * Shadow-model differential checker (shadow_audit.hpp).
 *
 * The clean soaks drive the shadow-armed postponed-update engine over
 * more than a million references of synthetic and Olden-style traffic
 * with affinity widths wide enough that no SatInt ever clamps: the
 * oracle must stay armed (bit-exact with DirectAffinityEngine) the
 * whole way. The corruption tests then verify the other edge: a
 * silently corrupted O_e entry must panic, while each *legitimate*
 * model departure (saturation, FIFO duplicates, affinity-cache
 * eviction, foreign store entries, ArKind::Figure2) must disarm the
 * oracle without killing the run.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/engine.hpp"
#include "core/migration_controller.hpp"
#include "core/oe_store.hpp"
#include "core/shadow_audit.hpp"
#include "core/soa_oe_store.hpp"
#include "core/kway_splitter.hpp"
#include "mem/trace.hpp"
#include "multicore/feed.hpp"
#include "multicore/machine.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

/**
 * Engine configuration wide enough that the bounded soaks below can
 * never clamp a SatInt: affinities stay within +-(references), so 44
 * bits (A_R at 44 + 7 = 51 bits) leaves orders of magnitude of slack.
 */
EngineConfig
wideConfig(size_t window, WindowKind kind)
{
    EngineConfig c;
    c.affinityBits = 44;
    c.windowSize = window;
    c.window = kind;
    c.shadow = ShadowMode::Armed;
    return c;
}

/** Drive `refs` elements of `stream` through a fresh armed engine. */
void
soak(ElementStream &stream, uint64_t refs, WindowKind kind,
     size_t window = 128)
{
    const EngineConfig config = wideConfig(window, kind);
    UnboundedOeStore store(config.affinityBits);
    AffinityEngine engine(config, store);
    for (uint64_t i = 0; i < refs; ++i)
        engine.reference(stream.next());

    ASSERT_NE(engine.shadow(), nullptr);
    EXPECT_TRUE(engine.shadow()->armed())
        << "oracle disarmed during a soak that should never clamp";
    EXPECT_EQ(engine.shadow()->comparisons(), refs);
    EXPECT_GT(engine.shadow()->deepChecks(), 0u);
}

TEST(ShadowAuditSoak, CircularFifoStaysBitExact)
{
    // Circular over a universe larger than the window never re-enters
    // a line still in the FIFO, so even the FIFO engine is shadowable.
    CircularStream stream(300);
    soak(stream, 400'000, WindowKind::Fifo);
}

TEST(ShadowAuditSoak, CircularDistinctLruStaysBitExact)
{
    CircularStream stream(300);
    soak(stream, 150'000, WindowKind::DistinctLru);
}

TEST(ShadowAuditSoak, HalfRandomStaysBitExact)
{
    // Splittable phase-alternating traffic; duplicates are common, so
    // only the distinct-LRU window keeps the identities exact.
    HalfRandomStream stream(400, 64);
    soak(stream, 300'000, WindowKind::DistinctLru);
}

TEST(ShadowAuditSoak, UniformRandomStaysBitExact)
{
    UniformRandomStream stream(512);
    soak(stream, 300'000, WindowKind::DistinctLru);
}

TEST(ShadowAuditSoak, StrideStaysBitExact)
{
    StrideStream stream(509, 3); // prime universe, full-period stride
    soak(stream, 150'000, WindowKind::DistinctLru);
}

/**
 * Folds a workload's data-reference stream into a bounded line
 * universe and feeds it to an armed engine, keeping the shadow
 * model's O(|S|) per-reference cost constant.
 */
class FoldingSink : public RefSink
{
  public:
    FoldingSink(AffinityEngine &engine, uint64_t universe)
        : engine_(engine), universe_(universe)
    {
    }

    void
    access(const MemRef &ref) override
    {
        if (!ref.isData())
            return;
        engine_.reference((ref.addr / 64) % universe_);
        ++fed_;
    }

    uint64_t fed() const { return fed_; }

  private:
    AffinityEngine &engine_;
    uint64_t universe_;
    uint64_t fed_ = 0;
};

TEST(ShadowAuditSoak, OldenWorkloadsStayBitExact)
{
    // Olden-style pointer-chasing traffic: linked-structure walks
    // with real duplicate density, not synthetic periodicity.
    for (const char *name : {"mst", "em3d"}) {
        SCOPED_TRACE(name);
        const EngineConfig config =
            wideConfig(128, WindowKind::DistinctLru);
        UnboundedOeStore store(config.affinityBits);
        AffinityEngine engine(config, store);
        FoldingSink sink(engine, 1024);
        makeWorkload(name)->run(sink, 300'000);

        ASSERT_NE(engine.shadow(), nullptr);
        EXPECT_TRUE(engine.shadow()->armed()) << name;
        EXPECT_GT(sink.fed(), 50'000u);
        EXPECT_EQ(engine.shadow()->comparisons(), sink.fed());
    }
}

TEST(ShadowAudit, DeepSweepCadenceIsHonored)
{
    EngineConfig config = wideConfig(32, WindowKind::DistinctLru);
    config.shadowDeepCheckEvery = 64;
    UnboundedOeStore store(config.affinityBits);
    AffinityEngine engine(config, store);
    CircularStream stream(100);
    for (uint64_t i = 0; i < 1000; ++i)
        engine.reference(stream.next());
    EXPECT_EQ(engine.shadow()->deepChecks(), 1000u / 64);
}

TEST(ShadowAudit, ZeroCadenceDisablesDeepSweeps)
{
    EngineConfig config = wideConfig(32, WindowKind::DistinctLru);
    config.shadowDeepCheckEvery = 0;
    UnboundedOeStore store(config.affinityBits);
    AffinityEngine engine(config, store);
    CircularStream stream(100);
    for (uint64_t i = 0; i < 1000; ++i)
        engine.reference(stream.next());
    EXPECT_EQ(engine.shadow()->deepChecks(), 0u);
    EXPECT_EQ(engine.shadow()->comparisons(), 1000u);
}

/** Corrupt a stored O_e behind the engine's back, then re-reference. */
void
runWithCorruptedStore()
{
    const EngineConfig config = wideConfig(128, WindowKind::Fifo);
    UnboundedOeStore store(config.affinityBits);
    AffinityEngine engine(config, store);
    CircularStream stream(300);
    // One full lap: line 0 has left the window and sits in the store.
    for (uint64_t i = 0; i < 300; ++i)
        engine.reference(stream.next());
    ASSERT_TRUE(store.peek(0).has_value());
    store.store(0, *store.peek(0) + 123); // the silent corruption
    // The very next reference is line 0 again: A_e must diverge.
    for (uint64_t i = 0; i < 300; ++i)
        engine.reference(stream.next());
}

TEST(ShadowAuditDeathTest, CorruptedOeEntryPanics)
{
    EXPECT_DEATH(runWithCorruptedStore(), "shadow audit");
}

TEST(ShadowAuditDisarm, SaturationDisarmsWithoutPanicking)
{
    // 4-bit affinities clamp almost immediately under random traffic;
    // the oracle must bow out, not false-alarm.
    EngineConfig config = wideConfig(16, WindowKind::DistinctLru);
    config.affinityBits = 4;
    UnboundedOeStore store(config.affinityBits);
    AffinityEngine engine(config, store);
    UniformRandomStream stream(64);
    for (uint64_t i = 0; i < 50'000; ++i)
        engine.reference(stream.next());
    EXPECT_FALSE(engine.shadow()->armed());
}

TEST(ShadowAuditDisarm, FifoDuplicateDisarms)
{
    const EngineConfig config = wideConfig(8, WindowKind::Fifo);
    UnboundedOeStore store(config.affinityBits);
    AffinityEngine engine(config, store);
    engine.reference(5);
    EXPECT_TRUE(engine.shadow()->armed());
    engine.reference(5); // still in the FIFO: stale O_e refetch
    EXPECT_FALSE(engine.shadow()->armed());
}

TEST(ShadowAuditDisarm, Figure2DisarmsAtBirth)
{
    EngineConfig config = wideConfig(32, WindowKind::Fifo);
    config.ar = ArKind::Figure2;
    UnboundedOeStore store(config.affinityBits);
    AffinityEngine engine(config, store);
    ASSERT_NE(engine.shadow(), nullptr);
    EXPECT_FALSE(engine.shadow()->armed());
    engine.reference(1);
    EXPECT_EQ(engine.shadow()->comparisons(), 0u);
}

TEST(ShadowAuditDisarm, AffinityCacheEvictionDisarms)
{
    AffinityCacheConfig ac;
    ac.entries = 64;
    ac.ways = 4;
    const EngineConfig config = wideConfig(8, WindowKind::DistinctLru);
    EngineConfig narrow = config;
    narrow.affinityBits = ac.affinityBits; // match the cache width
    SoaAffinityStore store(ac);
    AffinityEngine engine(narrow, store);
    // A working set far beyond 64 entries forces evictions; the first
    // miss on a line the shadow knows must disarm, never panic.
    CircularStream stream(512);
    for (uint64_t i = 0; i < 2048; ++i)
        engine.reference(stream.next());
    EXPECT_GT(store.stats().evictions, 0u);
    EXPECT_FALSE(engine.shadow()->armed());
}

TEST(ShadowAuditDisarm, ForeignStoreEntryDisarms)
{
    const EngineConfig config = wideConfig(16, WindowKind::DistinctLru);
    UnboundedOeStore store(config.affinityBits);
    AffinityEngine engine(config, store);
    for (uint64_t i = 0; i < 32; ++i)
        engine.reference(i);
    // A sibling mechanism sharing the store writes a line this engine
    // has never seen; the engine's next lookup hits on it.
    store.store(999, 5);
    engine.reference(999);
    EXPECT_FALSE(engine.shadow()->armed());
}

/** Wide-affinity tree of `depth` levels with the root shadow armed. */
KWaySplitter::Config
wideTree(unsigned depth)
{
    KWaySplitter::Config sc;
    sc.depth = depth;
    sc.affinityBits = 44;
    sc.rootWindow = 128;
    sc.window = WindowKind::DistinctLru;
    sc.shadow = ShadowMode::Armed;
    return sc;
}

TEST(ShadowAuditSplitter, TwoWayMechanismStaysBitExact)
{
    const KWaySplitter::Config sc = wideTree(1);
    UnboundedOeStore store(sc.affinityBits);
    KWaySplitter splitter(sc, store);
    HalfRandomStream stream(400, 64);
    for (uint64_t i = 0; i < 100'000; ++i)
        splitter.onReference(stream.next());
    ASSERT_NE(splitter.rootEngine().shadow(), nullptr);
    EXPECT_TRUE(splitter.rootEngine().shadow()->armed());
    EXPECT_EQ(splitter.rootEngine().shadow()->comparisons(), 100'000u);
}

TEST(ShadowAuditSplitter, FourWayArmsOnlyMechanismX)
{
    const KWaySplitter::Config sc = wideTree(2);
    UnboundedOeStore store(sc.affinityBits);
    KWaySplitter splitter(sc, store);
    CircularStream stream(600);
    for (uint64_t i = 0; i < 60'000; ++i)
        splitter.onReference(stream.next());
    // Lines are hash-partitioned: the root (X) sees roughly half the
    // stream (odd residues) and stays exact; the Y-level nodes share
    // the store across siblings and are not armed.
    ASSERT_NE(splitter.rootEngine().shadow(), nullptr);
    EXPECT_TRUE(splitter.rootEngine().shadow()->armed());
    EXPECT_GT(splitter.rootEngine().shadow()->comparisons(), 20'000u);
    EXPECT_LT(splitter.rootEngine().shadow()->comparisons(), 60'000u);
}

MigrationControllerConfig
wideController(unsigned cores)
{
    MigrationControllerConfig c;
    c.numCores = cores;
    c.affinityBits = 44;
    c.window = WindowKind::DistinctLru;
    c.boundedStore = false;
    c.shadowAudit = true;
    return c;
}

TEST(ShadowAuditController, TwoCoreControllerStaysBitExact)
{
    MigrationController ctrl(wideController(2));
    HalfRandomStream stream(400, 64);
    for (uint64_t i = 0; i < 50'000; ++i)
        ctrl.onRequest(stream.next());
    ASSERT_NE(ctrl.shadowAudit(), nullptr);
    EXPECT_TRUE(ctrl.shadowAudit()->armed());
    EXPECT_EQ(ctrl.shadowAudit()->comparisons(), 50'000u);
}

TEST(ShadowAuditController, EightCoreRootStaysBitExact)
{
    MigrationController ctrl(wideController(8));
    CircularStream stream(700);
    for (uint64_t i = 0; i < 50'000; ++i)
        ctrl.onRequest(stream.next());
    ASSERT_NE(ctrl.shadowAudit(), nullptr);
    EXPECT_TRUE(ctrl.shadowAudit()->armed());
    // The tree root only sees the hash-partitioned half of the
    // stream that drives the level-0 mechanism.
    EXPECT_GT(ctrl.shadowAudit()->comparisons(), 15'000u);
    EXPECT_LT(ctrl.shadowAudit()->comparisons(), 50'000u);
}

TEST(ShadowAuditController, ShadowOffByDefault)
{
    MigrationControllerConfig c;
    c.numCores = 4;
    MigrationController ctrl(c);
    EXPECT_EQ(ctrl.shadowAudit(), nullptr);
}

TEST(ShadowAuditMachine, CleanRunOverOldenTraffic)
{
    // End-to-end: a 2-core machine with the oracle armed behind the
    // L1 filter digests real workload traffic without a panic. The
    // post-L1 stream may legitimately disarm the oracle (it is not a
    // controlled synthetic stream), but it must never false-alarm.
    MachineConfig cfg;
    cfg.numCores = 2;
    cfg.controller = wideController(2);
    MigrationMachine machine(cfg);
    ChunkFeed({&machine}).run(*makeWorkload("mst"), 60'000);
    ASSERT_NE(machine.controller(), nullptr);
    ASSERT_NE(machine.controller()->shadowAudit(), nullptr);
    EXPECT_GT(machine.controller()->shadowAudit()->comparisons(), 0u);
    EXPECT_GT(machine.stats().l1Misses, 0u);
}

} // namespace
} // namespace xmig
