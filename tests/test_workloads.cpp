/**
 * @file
 * Tests for the workload substrate: registry completeness, kernel
 * determinism, budget adherence, address sanity, and the footprint /
 * behavior classes each benchmark is tuned to (see DESIGN.md).
 */

#include <gtest/gtest.h>

#include <iterator>
#include <unordered_set>

#include "cache/l1_filter.hpp"
#include "workloads/code_walker.hpp"
#include "workloads/registry.hpp"

namespace xmig {
namespace {

TEST(Registry, HasAllEighteenBenchmarks)
{
    EXPECT_EQ(allWorkloadNames().size(), 18u);
    EXPECT_EQ(specWorkloadNames().size(), 13u);
    EXPECT_EQ(oldenWorkloadNames().size(), 5u);
}

TEST(Registry, FactoriesProduceMatchingInfo)
{
    for (const auto &name : allWorkloadNames()) {
        auto w = makeWorkload(name);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->info().name, name);
        EXPECT_FALSE(w->info().suite.empty());
        EXPECT_FALSE(w->info().description.empty());
    }
}

TEST(Registry, ShortNamesResolve)
{
    EXPECT_EQ(makeWorkload("mcf")->info().name, "181.mcf");
    EXPECT_EQ(makeWorkload("art")->info().name, "179.art");
    EXPECT_EQ(makeWorkload("bh")->info().name, "bh");
}

TEST(Registry, UnknownNameIsFatal)
{
    EXPECT_DEATH({ makeWorkload("nonexistent"); }, "unknown workload");
}

TEST(CodeWalker, AddressesStayInCodeImage)
{
    CodeWalkerConfig c;
    c.codeBytes = 4096;
    c.baseAddr = 0x400000;
    CodeWalker walker(c);
    RefRecorder rec;
    for (int i = 0; i < 10000; ++i)
        walker.step(rec);
    for (const MemRef &r : rec.refs()) {
        ASSERT_TRUE(r.isIfetch());
        ASSERT_GE(r.addr, c.baseAddr);
        // Function carving may round up by one function length.
        ASSERT_LT(r.addr, c.baseAddr + c.codeBytes + 4096);
    }
}

TEST(CodeWalker, Deterministic)
{
    CodeWalkerConfig c;
    CodeWalker a(c), b(c);
    RefRecorder ra, rb;
    for (int i = 0; i < 2000; ++i) {
        a.step(ra);
        b.step(rb);
    }
    EXPECT_EQ(ra.refs(), rb.refs());
}

TEST(Workloads, DeterministicForSeed)
{
    for (const char *name : {"179.art", "health", "164.gzip"}) {
        auto w1 = makeWorkload(name);
        auto w2 = makeWorkload(name);
        RefRecorder r1, r2;
        w1->run(r1, 20'000, 7);
        w2->run(r2, 20'000, 7);
        EXPECT_EQ(r1.refs(), r2.refs()) << name;
    }
}

TEST(Workloads, BudgetRespectedWithinSlack)
{
    for (const auto &name : allWorkloadNames()) {
        auto w = makeWorkload(name);
        RefCounter c;
        const uint64_t budget = 300'000;
        w->run(c, budget);
        EXPECT_GE(c.instructions(), budget) << name;
        // Kernels may overshoot by at most one inner phase.
        EXPECT_LT(c.instructions(), budget * 3 / 2) << name;
    }
}

TEST(Workloads, EmitBothInstructionAndDataRefs)
{
    for (const auto &name : allWorkloadNames()) {
        auto w = makeWorkload(name);
        RefCounter c;
        // art's store-free recognition phase alone covers ~150k
        // instructions; use a budget that reaches every phase.
        w->run(c, 400'000);
        EXPECT_GT(c.ifetches(), 0u) << name;
        EXPECT_GT(c.loads(), 0u) << name;
        EXPECT_GT(c.stores(), 0u) << name;
        // Data refs should not outnumber instructions.
        EXPECT_LE(c.loads() + c.stores(), c.instructions()) << name;
    }
}

/** Measure the post-L1 data footprint of a kernel, in bytes. */
uint64_t
dataFootprint(const std::string &name, uint64_t instructions)
{
    struct FootprintSink : LineSink
    {
        std::unordered_set<uint64_t> lines;
        void
        onLine(const LineEvent &e) override
        {
            if (e.type != RefType::Ifetch)
                lines.insert(e.line);
        }
    } sink;
    L1FilterConfig c; // 16 KB fully-associative, unified
    L1Filter filter(c, sink);
    makeWorkload(name)->run(filter, instructions);
    return sink.lines.size() * 64;
}

TEST(Workloads, FootprintClasses)
{
    const uint64_t kInstr = 3'000'000;
    const uint64_t kL2 = 512 * 1024, k4L2 = 2 * 1024 * 1024;

    // Splittable class: bigger than one L2, within (or near) 4xL2.
    for (const char *name : {"179.art", "188.ammp", "em3d"}) {
        const uint64_t fp = dataFootprint(name, kInstr);
        EXPECT_GT(fp, kL2) << name;
        EXPECT_LT(fp, k4L2) << name;
    }
    // Streaming class: far beyond the total on-chip capacity.
    for (const char *name : {"171.swim", "172.mgrid", "mst"}) {
        const uint64_t fp = dataFootprint(name, kInstr);
        EXPECT_GT(fp, 2 * k4L2) << name;
    }
    // Fits-one-L2 class.
    for (const char *name : {"300.twolf", "bh", "175.vpr"}) {
        const uint64_t fp = dataFootprint(name, kInstr);
        EXPECT_LT(fp, kL2) << name;
    }
}

TEST(Workloads, InstructionHeavyClassMissesInIL1)
{
    // gcc/crafty/vortex carry large code images (Table 1).
    for (const char *name : {"176.gcc", "186.crafty", "255.vortex"}) {
        L1FilterConfig c;
        NullLineSink null_sink;
        L1Filter filter(c, null_sink);
        makeWorkload(name)->run(filter, 1'000'000);
        const double imiss_per_kinstr =
            static_cast<double>(filter.il1Stats().misses) / 1000.0;
        EXPECT_GT(imiss_per_kinstr, 5.0) << name;
    }
    // Most other benchmarks barely miss in IL1.
    for (const char *name : {"179.art", "171.swim", "bh"}) {
        L1FilterConfig c;
        NullLineSink null_sink;
        L1Filter filter(c, null_sink);
        makeWorkload(name)->run(filter, 1'000'000);
        EXPECT_LT(filter.il1Stats().missRatio(), 0.01) << name;
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

/** Digest of a MemRef stream: address, type and pointer mark. */
struct StreamDigest : RefSink
{
    uint64_t hash = 0xcbf29ce484222325ull;
    void
    access(const MemRef &ref) override
    {
        hash = fnvMix(hash, ref.addr);
        hash = fnvMix(hash, static_cast<uint64_t>(ref.type) |
                                uint64_t{ref.pointer} << 8);
    }
};

/* Recorded with the out-of-line CodeWalker::advance() step. */
TEST(WorkloadGolden, StreamsArePinned)
{
    struct Pinned
    {
        const char *name;
        uint64_t seed42;
        uint64_t seed1009;
    };
    const Pinned pinned[] = {
        {"164.gzip", 0xdf9c943b6ade4b6cull, 0x5f721ea7277dc33eull},
        {"171.swim", 0xb9c92b0988dee057ull, 0xb9c92b0988dee057ull},
        {"172.mgrid", 0xd367f0241ff6dee4ull, 0xd367f0241ff6dee4ull},
        {"175.vpr", 0xe234ae3c097329a9ull, 0xa8f8b59b1f564d2cull},
        {"176.gcc", 0x6b124f385051885cull, 0x546ddbe585a47d91ull},
        {"179.art", 0x7c432588fa1068c8ull, 0x33e12e727ffe42a4ull},
        {"181.mcf", 0x33dc8ffb18e20935ull, 0x2d873b2c3b6b0ec2ull},
        {"186.crafty", 0xf5203c7d2cca1bdbull, 0x9fc3b2f206db9a5bull},
        {"188.ammp", 0x08b85b70eaeaed52ull, 0x08b85b70eaeaed52ull},
        {"197.parser", 0xb14804ea32fd31a7ull, 0x8c78ed711d121e0bull},
        {"255.vortex", 0xa51fce2a8514efd1ull, 0x7997e480ad0f789full},
        {"256.bzip2", 0x51940f287c2621e2ull, 0x51940f287c2621e2ull},
        {"300.twolf", 0xfc2edc26bfb53bfdull, 0xdc24c99e98431c34ull},
        {"bh", 0x327498045d8491a9ull, 0x327498045d8491a9ull},
        {"bisort", 0xa640cd2e9fc99f11ull, 0xf5af047e6cf859eaull},
        {"em3d", 0x7ec8366655fed3b7ull, 0x7ec8366655fed3b7ull},
        {"health", 0x31dd293692e245c7ull, 0x090a662b214d941bull},
        {"mst", 0x928296eebfd60a45ull, 0x761937de18549f11ull},
        {"storm.unsplit", 0xeb364c67feafac8cull, 0xff511d3fe41b1e62ull},
        {"storm.phase", 0xabb74ab25b7e83ddull, 0xe8357d107a8ce8f8ull},
        {"storm.thrash", 0xb9c2dfe36d1375d9ull, 0x969a4fec71186b6bull},
    };
    std::vector<std::string> names = allWorkloadNames();
    for (const std::string &n : adversarialWorkloadNames())
        names.push_back(n);
    ASSERT_EQ(names.size(), std::size(pinned));
    for (size_t i = 0; i < names.size(); ++i) {
        ASSERT_EQ(names[i], pinned[i].name);
        for (uint64_t seed : {42, 1009}) {
            StreamDigest d;
            makeWorkload(names[i])->run(d, 200'000, seed);
            EXPECT_EQ(d.hash, seed == 42 ? pinned[i].seed42
                                         : pinned[i].seed1009)
                << names[i] << " seed " << seed << std::hex << " got 0x"
                << d.hash;
        }
    }
}

} // namespace
} // namespace xmig
