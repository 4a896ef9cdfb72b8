/**
 * @file
 * The central correctness property of the postponed-update scheme:
 * AffinityEngine (Figure 2 datapath with ArKind::Exact) computes
 * element-for-element the same affinities as the direct O(|S|)
 * implementation of Definition 1.
 *
 * Two regimes are checked:
 *  - distinct-LRU windows: exact equivalence on arbitrary streams;
 *  - FIFO windows: exact equivalence on streams that never repeat an
 *    element within |R| references (no window duplicates, so the two
 *    semantics coincide); Circular provides such streams.
 *
 * Wide affinity widths are used so saturation (a hardware concession
 * the direct engine does not model) cannot fire.
 *
 * EngineGolden then pins reference() itself, saturation included,
 * against digests of recorded runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "core/direct_engine.hpp"
#include "core/engine.hpp"
#include "core/oe_store.hpp"
#include "core/soa_oe_store.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

using Param = std::tuple<size_t /*window*/, uint64_t /*universe*/,
                         uint64_t /*seed*/>;

class LruEquivalenceTest : public ::testing::TestWithParam<Param>
{
};

TEST_P(LruEquivalenceTest, RandomStreamsMatchExactly)
{
    const auto [window, universe, seed] = GetParam();

    EngineConfig ec;
    ec.affinityBits = 40; // no saturation
    ec.windowSize = window;
    ec.window = WindowKind::DistinctLru;
    ec.ar = ArKind::Exact;
    UnboundedOeStore store(ec.affinityBits);
    AffinityEngine postponed(ec, store);

    DirectEngineConfig dc;
    dc.windowSize = window;
    dc.window = WindowKind::DistinctLru;
    DirectAffinityEngine direct(dc);

    Rng rng(seed);
    for (int t = 0; t < 6000; ++t) {
        const uint64_t e = rng.below(universe);
        const int64_t ae_fast = postponed.reference(e).ae;
        const int64_t ae_ref = direct.reference(e);
        ASSERT_EQ(ae_fast, ae_ref) << "A_e diverged at t=" << t;
        ASSERT_EQ(postponed.windowAffinity(), direct.windowAffinity())
            << "A_R diverged at t=" << t;
    }
    // Final affinities of every element must agree.
    for (uint64_t e = 0; e < universe; ++e) {
        const auto a = postponed.affinityOf(e);
        const auto b = direct.affinityOf(e);
        ASSERT_EQ(a.has_value(), b.has_value()) << "e=" << e;
        if (a) {
            ASSERT_EQ(*a, *b) << "e=" << e;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LruEquivalenceTest,
    ::testing::Values(Param{4, 12, 1}, Param{16, 40, 2},
                      Param{16, 17, 3}, Param{64, 200, 4},
                      Param{100, 150, 5}, Param{7, 100, 6}));

class FifoEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>>
{
};

TEST_P(FifoEquivalenceTest, NonRepeatingStreamsMatchExactly)
{
    const auto [window, universe] = GetParam();
    ASSERT_GT(universe, window) << "stream must not self-collide";

    EngineConfig ec;
    ec.affinityBits = 40;
    ec.windowSize = window;
    ec.window = WindowKind::Fifo;
    ec.ar = ArKind::Exact;
    UnboundedOeStore store(ec.affinityBits);
    AffinityEngine postponed(ec, store);

    DirectEngineConfig dc;
    dc.windowSize = window;
    dc.window = WindowKind::Fifo;
    DirectAffinityEngine direct(dc);

    CircularStream stream(universe);
    for (int t = 0; t < 8000; ++t) {
        const uint64_t e = stream.next();
        ASSERT_EQ(postponed.reference(e).ae, direct.reference(e))
            << "A_e diverged at t=" << t;
        ASSERT_EQ(postponed.windowAffinity(), direct.windowAffinity())
            << "A_R diverged at t=" << t;
    }
    for (uint64_t e = 0; e < universe; ++e) {
        const auto a = postponed.affinityOf(e);
        const auto b = direct.affinityOf(e);
        ASSERT_EQ(a.has_value(), b.has_value()) << "e=" << e;
        if (a) {
            ASSERT_EQ(*a, *b) << "e=" << e;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FifoEquivalenceTest,
    ::testing::Values(std::make_tuple(4, 9), std::make_tuple(16, 33),
                      std::make_tuple(100, 300),
                      std::make_tuple(128, 1000)));

TEST(PostponedUpdateInvariants, IeOeConversionsRoundTrip)
{
    // While an element is outside R, its O_e entry must keep
    // A_e + Delta invariant: re-referencing after arbitrary history
    // yields the same A_e as the direct engine — already covered by
    // the suites above — and A_e of a first touch is exactly 0.
    EngineConfig ec;
    ec.affinityBits = 40;
    ec.windowSize = 8;
    UnboundedOeStore store(ec.affinityBits);
    AffinityEngine engine(ec, store);
    CircularStream stream(100);
    for (int t = 0; t < 100; ++t) {
        const RefOutcome out = engine.reference(stream.next());
        ASSERT_EQ(out.ae, 0) << "first touch must have A_e = 0";
    }
}

TEST(PostponedUpdateInvariants, DeltaTracksSignHistory)
{
    // Every reference adds exactly +/-1 to Delta.
    EngineConfig ec;
    ec.affinityBits = 40;
    ec.windowSize = 16;
    UnboundedOeStore store(ec.affinityBits);
    AffinityEngine engine(ec, store);
    Rng rng(3);
    int64_t prev = engine.delta();
    for (int t = 0; t < 2000; ++t) {
        engine.reference(rng.below(100));
        const int64_t d = engine.delta();
        ASSERT_EQ(std::abs(d - prev), 1);
        prev = d;
    }
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
 * Digest of one engine run through reference(): every reference's
 * A_e and in-window flag, then the final Delta, A_R, sum(I_e) and
 * reference count, the store's statistics and its sorted entries.
 * The stream sweeps 3000 lines circularly and, one reference in
 * three, revisits a 200-line hot set, so FIFO windows see duplicate
 * entries, DistinctLru windows see re-references, and a 1k-entry
 * store evicts.
 */
uint64_t
engineRunDigest(const EngineConfig &ec, OeStore &store)
{
    AffinityEngine engine(ec, store);
    CircularStream sweep(3000);
    Rng rng(29);
    uint64_t hash = 0xcbf29ce484222325ull;
    for (int t = 0; t < 60'000; ++t) {
        const uint64_t line =
            rng.below(3) == 0 ? 100'000 + rng.below(200) : sweep.next();
        const RefOutcome out = engine.reference(line);
        hash = fnvMix(hash, static_cast<uint64_t>(out.ae));
        hash = fnvMix(hash, out.inWindow);
    }
    const EngineCheckpoint ckpt = engine.checkpoint();
    const OeStoreStats &st = store.stats();
    for (const uint64_t v :
         {static_cast<uint64_t>(engine.delta()),
          static_cast<uint64_t>(engine.windowAffinity()),
          static_cast<uint64_t>(ckpt.sumIe), engine.references(),
          st.lookups, st.misses, st.stores, st.evictions})
        hash = fnvMix(hash, v);
    std::vector<OeEntrySnapshot> entries;
    store.snapshotEntries(entries);
    for (const OeEntrySnapshot &e : entries) {
        hash = fnvMix(hash, e.line);
        hash = fnvMix(hash, static_cast<uint64_t>(e.oe));
    }
    return hash;
}

/*
 * reference() is the engine's one per-reference path. Pinned over the
 * FIFO/Exact configuration on the finite SoA affinity cache (the
 * machine's default), FIFO over the unbounded store, DistinctLru
 * windows and the Figure-2 register recurrence; recorded from the
 * engine that still carried a separate FIFO/Exact batch loop.
 */
TEST(EngineGolden, ReferenceStreamsArePinned)
{
    AffinityCacheConfig ac;
    ac.entries = 1024;
    EngineConfig ec;
    ec.windowSize = 128;

    SoaAffinityStore fifo_store(ac);
    EXPECT_EQ(engineRunDigest(ec, fifo_store), 0x7ae745441f7c7509ull)
        << "FIFO/Exact SoA";

    UnboundedOeStore unbounded(ec.affinityBits);
    EXPECT_EQ(engineRunDigest(ec, unbounded), 0x7f08b1584576c397ull)
        << "FIFO/Exact unbounded";

    EngineConfig lru = ec;
    lru.window = WindowKind::DistinctLru;
    SoaAffinityStore lru_store(ac);
    EXPECT_EQ(engineRunDigest(lru, lru_store), 0x3d247b57894760f2ull)
        << "DistinctLru";

    EngineConfig fig2 = ec;
    fig2.ar = ArKind::Figure2;
    SoaAffinityStore fig2_store(ac);
    EXPECT_EQ(engineRunDigest(fig2, fig2_store), 0x61b96ea43d9ea26full)
        << "Figure2";
}

} // namespace
} // namespace xmig
