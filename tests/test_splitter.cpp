/**
 * @file
 * Golden references for the paper's 2-way (sections 3.2-3.4) and
 * 4-way (section 3.6) splits, both run through the recursive tree
 * (KWaySplitter at depth 1 and 2).
 *
 * The digests below were recorded from the dedicated 2-way and 4-way
 * splitter classes the tree replaced; the tree must keep reproducing
 * them decision for decision. The journal digests pin the JSONL bytes
 * of short 2-core and 4-core machine runs, so a change in what the
 * splitter journals (or when) shows up here first. The TwoWaySplitter
 * and FourWaySplitter unit tests check the same splits' basic
 * behaviour on the depth-1 and depth-2 trees.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "core/kway_splitter.hpp"
#include "core/oe_store.hpp"
#include "core/soa_oe_store.hpp"
#include "sim/observe.hpp"
#include "sim/quadcore.hpp"
#include "util/hashing.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

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

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** Splitter and store settings of one golden stream. */
struct StreamCase
{
    uint32_t samplingCutoff;
    bool boundedStore;  ///< SoA affinity cache vs unlimited storage
    unsigned filterBits;
};

/** Section 4.2 machine settings, with a cache small enough to evict. */
constexpr StreamCase kMachineLike{8, true, 18};
/** Section 4.1 / Figures 4-5 settings: every line tracked. */
constexpr StreamCase kProfileLike{31, false, 20};

std::unique_ptr<OeStore>
makeStore(const StreamCase &sc)
{
    if (!sc.boundedStore)
        return std::make_unique<UnboundedOeStore>(16);
    AffinityCacheConfig ac;
    ac.entries = 1024;
    ac.ways = 4;
    ac.skewed = true;
    return std::make_unique<SoaAffinityStore>(ac);
}

/**
 * Digest of the per-reference (subset, transition, sampled, ae)
 * stream over 300k references: splittable circular, half-random and
 * uniform phases, with the filter frozen on a fixed share of
 * references (the L2-filtering path) in both short and long runs.
 */
template <class Splitter>
uint64_t
decisionDigest(Splitter &splitter)
{
    CircularStream circular(3000);
    HalfRandomStream half(4000, 1500, 5);
    UniformRandomStream uniform(5000, 11);
    uint64_t hash = kFnvBasis;
    for (uint64_t t = 0; t < 300'000; ++t) {
        const uint64_t phase = (t / 50'000) % 3;
        const uint64_t line = phase == 0 ? circular.next()
            : phase == 1                 ? half.next()
                                         : uniform.next();
        const bool update = t % 7 != 3 && (t / 4096) % 4 != 3;
        const SplitDecision d = splitter.onReference(line, update);
        hash = fnvMix(hash, d.subset);
        hash = fnvMix(hash, (d.transition ? 2u : 0u) |
                                (d.sampled ? 1u : 0u));
        hash = fnvMix(hash, static_cast<uint64_t>(d.ae));
    }
    return fnvMix(hash, splitter.transitions());
}

uint64_t
treeDigest(unsigned depth, const StreamCase &sc)
{
    const std::unique_ptr<OeStore> store = makeStore(sc);
    KWaySplitter::Config c;
    c.depth = depth;
    c.rootWindow = 128;
    c.filterBits = sc.filterBits;
    c.samplingCutoff = sc.samplingCutoff;
    KWaySplitter splitter(c, *store);
    return decisionDigest(splitter);
}

TEST(SplitterGolden, DepthOneReproducesTwoWayDecisionStreams)
{
    EXPECT_EQ(treeDigest(1, kMachineLike), 0x99918487243f6467ull);
    EXPECT_EQ(treeDigest(1, kProfileLike), 0x63c6a96a538310eeull);
}

TEST(SplitterGolden, DepthTwoReproducesFourWayDecisionStreams)
{
    EXPECT_EQ(treeDigest(2, kMachineLike), 0xfb463a9b04b88e45ull);
    EXPECT_EQ(treeDigest(2, kProfileLike), 0xc80adae8f7d9a159ull);
}

/** FNV-1a 64 of the journal JSONL of a short machine run. */
uint64_t
journalDigest(unsigned cores, const std::string &plan, size_t *lines)
{
    BenchOptions oo;
    oo.journalOut = testing::TempDir() + "xmig_golden_journal_" +
                    std::to_string(cores) + ".jsonl";
    {
        RunObservatory observatory(oo);
        QuadcoreParams p;
        p.instructionsPerBenchmark = 400'000;
        p.machine.numCores = cores;
        p.machine.faultPlan = plan;
        runQuadcore("storm.phase", p, &observatory);
    }
    std::ifstream in(oo.journalOut, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string bytes = ss.str();
    uint64_t hash = kFnvBasis;
    *lines = 0;
    for (const char ch : bytes) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ull;
        *lines += ch == '\n' ? 1 : 0;
    }
    return hash;
}

TEST(SplitterGolden, JournalDigestsArePinned)
{
    size_t lines = 0;
    EXPECT_EQ(journalDigest(4, "", &lines), 0xab4122c8d5cdcb21ull);
    EXPECT_EQ(lines, 1299u);
    EXPECT_EQ(journalDigest(2, "", &lines), 0x2a53f1330c8c377cull);
    EXPECT_EQ(lines, 145u);
    // A core loss re-splits 4 -> 2 ways; the rejoin re-expands.
    EXPECT_EQ(journalDigest(4, "at=100000:core_off=1;at=250000:core_on=1",
                            &lines),
              0x5d196d05df1e0e98ull);
    EXPECT_EQ(lines, 955u);
}

/** The paper's 2-way split: one mechanism, the depth-1 tree. */
KWaySplitter::Config
twoWay(size_t window)
{
    KWaySplitter::Config c;
    c.depth = 1;
    c.rootWindow = window;
    return c;
}

TEST(TwoWaySplitter, SubsetFollowsFilterSign)
{
    UnboundedOeStore store(16);
    KWaySplitter splitter(twoWay(16), store);
    EXPECT_EQ(splitter.subset(), 0u); // filter starts at +
    const SplitDecision d = splitter.onReference(1);
    EXPECT_TRUE(d.sampled);
    EXPECT_LT(d.subset, 2u);
    EXPECT_EQ(d.subset, splitter.filter(0).side() > 0 ? 0u : 1u);
}

TEST(TwoWaySplitter, SamplingCutoffSkipsLines)
{
    UnboundedOeStore store(16);
    KWaySplitter::Config c = twoWay(16);
    c.samplingCutoff = 8;
    KWaySplitter splitter(c, store);
    uint64_t sampled = 0, skipped = 0;
    for (uint64_t line = 0; line < 310; ++line) {
        const SplitDecision d = splitter.onReference(line);
        (d.sampled ? sampled : skipped) += 1;
        EXPECT_EQ(d.sampled, hashMod31(line) < 8);
        if (!d.sampled) {
            EXPECT_EQ(d.ae, 0);
        }
    }
    EXPECT_EQ(sampled, 80u); // 8 of 31 residues over 310 lines
    // Unsampled lines must not touch the O_e store.
    EXPECT_EQ(store.stats().lookups, sampled);
}

TEST(TwoWaySplitter, FilterFrozenWithoutUpdateFlag)
{
    // L2 filtering: with update_filter = false the subset can never
    // change, whatever the affinities do.
    UnboundedOeStore store(16);
    KWaySplitter::Config c = twoWay(16);
    c.filterBits = 16;
    KWaySplitter splitter(c, store);
    UniformRandomStream s(1000);
    for (int t = 0; t < 50000; ++t) {
        const SplitDecision d = splitter.onReference(s.next(), false);
        ASSERT_FALSE(d.transition);
        ASSERT_EQ(d.subset, 0u);
    }
    EXPECT_EQ(splitter.transitions(), 0u);
    // Engine state advanced regardless.
    EXPECT_GT(splitter.rootEngine().references(), 0u);
}

TEST(TwoWaySplitter, CircularConvergesToTwoBalancedSubsets)
{
    UnboundedOeStore store(16);
    KWaySplitter splitter(twoWay(100), store);
    CircularStream s(4000);
    for (int t = 0; t < 1'000'000; ++t)
        splitter.onReference(s.next());
    std::map<unsigned, uint64_t> count;
    for (int t = 0; t < 4000; ++t)
        ++count[splitter.onReference(s.next()).subset];
    EXPECT_GT(count[0], 1000u);
    EXPECT_GT(count[1], 1000u);
}

TEST(FourWaySplitter, SubsetEncodingIsConsistent)
{
    // The paper's 4-way split is the depth-2 tree.
    UnboundedOeStore store(16);
    KWaySplitter::Config c;
    c.depth = 2;
    KWaySplitter splitter(c, store);
    const unsigned s = splitter.subset();
    EXPECT_LT(s, 4u);
    // Fresh filters are all positive: subset 0.
    EXPECT_EQ(s, 0u);
}

} // namespace
} // namespace xmig
