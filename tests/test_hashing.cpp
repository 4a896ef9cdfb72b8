/**
 * @file
 * Unit and property tests for the sampling hash and skewing hashes.
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace xmig {
namespace {

TEST(HashMod31, MatchesArithmeticModulo)
{
    // Exhaustive on small values.
    for (uint64_t e = 0; e < 100000; ++e)
        ASSERT_EQ(hashMod31(e), e % 31) << "e=" << e;
}

TEST(HashMod31, MatchesOnLargeRandomValues)
{
    Rng rng(123);
    for (int i = 0; i < 100000; ++i) {
        const uint64_t e = rng.next();
        ASSERT_EQ(hashMod31(e), e % 31) << "e=" << e;
    }
}

TEST(HashMod31, EdgeCases)
{
    EXPECT_EQ(hashMod31(0), 0u);
    EXPECT_EQ(hashMod31(31), 0u);
    EXPECT_EQ(hashMod31(30), 30u);
    EXPECT_EQ(hashMod31(32), 1u);
    EXPECT_EQ(hashMod31(UINT64_MAX), UINT64_MAX % 31);
}

TEST(SampledLine, CutoffSemantics)
{
    // cutoff 31 keeps everything; cutoff 0 keeps nothing.
    for (uint64_t e = 1000; e < 1100; ++e) {
        EXPECT_TRUE(sampledLine(e, 31));
        EXPECT_FALSE(sampledLine(e, 0));
        EXPECT_EQ(sampledLine(e, 8), hashMod31(e) < 8);
    }
}

TEST(SampledLine, QuarterSamplingRatio)
{
    // cutoff 8 keeps 8 of the 31 residues: ~25.8% of consecutive
    // lines (the paper's "one fourth of the working-set").
    uint64_t kept = 0;
    const uint64_t n = 31 * 1000;
    for (uint64_t e = 0; e < n; ++e)
        kept += sampledLine(e, 8) ? 1 : 0;
    EXPECT_EQ(kept, n * 8 / 31);
}

TEST(SkewHash, StaysInRange)
{
    Rng rng(7);
    for (unsigned bank = 0; bank < 4; ++bank) {
        for (int i = 0; i < 10000; ++i) {
            const uint64_t h = skewHash(rng.next(), bank, 2048);
            EXPECT_LT(h, 2048u);
        }
    }
}

TEST(SkewHash, BankZeroIsConventionalIndexing)
{
    for (uint64_t line = 0; line < 5000; ++line)
        EXPECT_EQ(skewHash(line, 0, 1024), line & 1023);
}

TEST(SkewHash, SequentialLinesDisperseInEveryBank)
{
    // The property that makes skewed associativity (and the 512-KB
    // L2 on sequential scans) work: a run of consecutive lines must
    // spread over nearly all sets of every bank.
    const uint64_t sets = 2048;
    for (unsigned bank = 1; bank < 4; ++bank) {
        std::set<uint64_t> used;
        for (uint64_t line = 0x4000000; line < 0x4000000 + sets; ++line)
            used.insert(skewHash(line, bank, sets));
        EXPECT_GT(used.size(), sets / 2)
            << "bank " << bank << " collapses sequential lines";
    }
}

TEST(SkewHash, MaxLoadBoundedOnSequentialLines)
{
    const uint64_t sets = 2048;
    for (unsigned bank = 1; bank < 4; ++bank) {
        std::unordered_map<uint64_t, unsigned> load;
        for (uint64_t line = 0; line < 6 * sets; ++line)
            ++load[skewHash(line + 0x12345, bank, sets)];
        unsigned max_load = 0;
        for (const auto &[s, c] : load)
            max_load = std::max(max_load, c);
        // Balls-in-bins: mean 6, a healthy hash stays well under 30.
        EXPECT_LT(max_load, 30u) << "bank " << bank;
    }
}

TEST(SkewHash, BanksAreDecorrelated)
{
    // Two lines colliding in one bank should almost never collide in
    // another.
    const uint64_t sets = 1024;
    Rng rng(99);
    uint64_t both = 0, trials = 0;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t a = rng.next(), b = rng.next();
        if (skewHash(a, 1, sets) == skewHash(b, 1, sets)) {
            ++trials;
            if (skewHash(a, 2, sets) == skewHash(b, 2, sets))
                ++both;
        }
    }
    // P(collide in bank 2 | collide in bank 1) should be ~1/sets.
    EXPECT_LT(both, trials / 16 + 3);
}

TEST(Mix64, IsDeterministicAndSpreads)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
    // Low bits of consecutive inputs should differ frequently.
    unsigned same = 0;
    for (uint64_t i = 0; i < 1000; ++i)
        same += ((mix64(i) ^ mix64(i + 1)) & 0xff) == 0 ? 1 : 0;
    EXPECT_LT(same, 20u);
}


TEST(Mix64, ValuesArePinned)
{
    // The skewed caches' placement depends on these exact bits.
    EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafull);
    EXPECT_EQ(mix64(42), 0xbdd732262feb6e95ull);
    EXPECT_EQ(mix64(~0ull), 0xe4d971771b652c20ull);
}

TEST(SkewHash, ValuesArePinned)
{
    // FNV-1a digest of skewHash over 3 set counts x 16 banks x 4096
    // lines, recorded before skewHash moved into the header.
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const uint64_t sets : {1ull, 64ull, 2048ull}) {
        for (unsigned bank = 0; bank < 16; ++bank) {
            for (uint64_t l = 0; l < 4096; ++l) {
                const uint64_t v = skewHash(0x4000000 + l * 7919, bank,
                                            sets);
                for (int i = 0; i < 8; ++i) {
                    hash ^= (v >> (8 * i)) & 0xff;
                    hash *= 0x100000001b3ull;
                }
            }
        }
    }
    EXPECT_EQ(hash, 0xccf01b69c9de7ec0ull);
}

} // namespace
} // namespace xmig
