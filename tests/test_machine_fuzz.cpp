/**
 * @file
 * Property fuzzing of the migration machine over its configuration
 * space: for every combination of core count, L2 organization,
 * controller valves, prefetch degree and window kind, the invariants of
 * section 2 must hold on a mixed random/circular/strided workload.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "multicore/machine.hpp"
#include "util/rng.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

using FuzzParam = std::tuple<unsigned /*cores*/, bool /*skewed*/,
                             bool /*l2filter*/, bool /*bounded*/,
                             int /*stride prefetch degree, 0 = off*/,
                             bool /*lru window*/>;

class MachineFuzzTest : public ::testing::TestWithParam<FuzzParam>
{
};

TEST_P(MachineFuzzTest, InvariantsHoldUnderMixedTraffic)
{
    const auto [cores, skewed, l2filter, bounded, prefetch, lru] =
        GetParam();

    MachineConfig cfg;
    cfg.numCores = cores;
    cfg.l2Bytes = 64 * 1024; // small L2s: force evictions
    cfg.l2Skewed = skewed;
    cfg.controller.l2Filtering = l2filter;
    cfg.controller.boundedStore = bounded;
    cfg.controller.affinityCache.entries = 1024;
    cfg.controller.windowX = 64;
    cfg.controller.window =
        lru ? WindowKind::DistinctLru : WindowKind::Fifo;
    cfg.prefetch.kind =
        prefetch == 0 ? PrefetchKind::None : PrefetchKind::Stride;
    if (prefetch > 0)
        cfg.prefetch.degree = static_cast<unsigned>(prefetch);

    MachineConfig base_cfg = cfg;
    base_cfg.numCores = 1;
    base_cfg.prefetch.kind = PrefetchKind::None;

    MigrationMachine machine(cfg);
    MigrationMachine baseline(base_cfg);

    Rng rng(cores * 1000 + prefetch * 10 + (skewed ? 1 : 0));
    CircularStream circ(3000);
    StrideStream strided(5000, 7);
    for (uint64_t t = 0; t < 120'000; ++t) {
        uint64_t line;
        switch (rng.below(3)) {
          case 0:
            line = circ.next();
            break;
          case 1:
            line = strided.next();
            break;
          default:
            line = rng.below(6000);
        }
        const uint64_t addr = 0x40000000 + line * 64;
        MemRef ref = rng.chance(0.25) ? MemRef::store(addr)
                                      : MemRef::load(addr);
        if (rng.chance(0.1))
            ref = MemRef::pointerLoad(addr);
        machine.access(ref);
        baseline.access(ref);
        if (rng.chance(0.05)) {
            const MemRef fetch =
                MemRef::ifetch(0x400000 + rng.below(4096));
            machine.access(fetch);
            baseline.access(fetch);
        }
    }

    // Invariant: at most one modified copy of any line (section 2.1).
    EXPECT_EQ(machine.countMultiModifiedLines(), 0u);

    // Invariant: the active core is always a real core.
    EXPECT_LT(machine.activeCore(), cores);

    // Consistency: every counted L2 miss belongs to a counted access,
    // forwards are a subset of misses, and per-cache stats add up.
    const MachineStats &s = machine.stats();
    EXPECT_LE(s.l2Misses, s.l2Accesses);
    EXPECT_LE(s.l2ToL2Forwards, s.l2Misses);
    uint64_t acc = 0, hits = 0, misses = 0;
    for (unsigned c = 0; c < cores; ++c) {
        const CacheStats &cs = machine.l2(c).stats();
        EXPECT_EQ(cs.hits + cs.misses, cs.accesses);
        acc += cs.accesses;
        hits += cs.hits;
        misses += cs.misses;
    }
    EXPECT_EQ(acc, s.l2Accesses);
    EXPECT_EQ(misses, s.l2Misses);
    EXPECT_EQ(hits, s.l2Accesses - s.l2Misses);

    // Invariant: mirrored L1s make the L1-miss stream identical to
    // the baseline machine's (prefetching happens below L1).
    EXPECT_EQ(s.l1Misses, baseline.stats().l1Misses);

    // Prefetch bookkeeping can never exceed what was filled.
    EXPECT_LE(s.prefetchUseful, s.prefetchFills);
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, MachineFuzzTest,
    ::testing::Combine(::testing::Values(2u, 4u, 8u),
                       ::testing::Bool(),          // skewed
                       ::testing::Bool(),          // l2 filtering
                       ::testing::Bool(),          // bounded store
                       ::testing::Values(0, 1, 2), // prefetch degree
                       ::testing::Bool()));        // LRU window

} // namespace
} // namespace xmig
