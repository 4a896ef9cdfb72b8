/**
 * @file
 * Unit tests for the write-policy cache model (section 2.1 semantics).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "cache/cache.hpp"
#include "util/rng.hpp"

namespace xmig {
namespace {

CacheConfig
tinyConfig(WritePolicy write)
{
    CacheConfig c;
    c.capacityBytes = 4 * 64; // 4 lines
    c.ways = 2;
    c.lineBytes = 64;
    c.write = write;
    return c;
}

TEST(Cache, ReadMissFillsThenHits)
{
    Cache cache(tinyConfig(WritePolicy::WriteBackAllocate));
    AccessOutcome first = cache.access(10, false);
    EXPECT_FALSE(first.hit);
    EXPECT_TRUE(first.filled);
    AccessOutcome second = cache.access(10, false);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(cache.stats().accesses, 2u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, WriteBackAllocateSetsModified)
{
    Cache cache(tinyConfig(WritePolicy::WriteBackAllocate));
    AccessOutcome out = cache.access(10, true);
    EXPECT_FALSE(out.hit);
    EXPECT_TRUE(out.filled);
    EXPECT_FALSE(out.writeThrough);
    ASSERT_NE(cache.find(10), Cache::kNoFrame);
    EXPECT_TRUE(cache.modified(cache.find(10)));
}

TEST(Cache, WriteThroughNoAllocateStoreMiss)
{
    Cache cache(tinyConfig(WritePolicy::WriteThroughNoAllocate));
    AccessOutcome out = cache.access(10, true);
    EXPECT_FALSE(out.hit);
    EXPECT_FALSE(out.filled); // non-write-allocate
    EXPECT_TRUE(out.writeThrough);
    EXPECT_FALSE(cache.contains(10));
}

TEST(Cache, WriteThroughStoreHitPropagates)
{
    Cache cache(tinyConfig(WritePolicy::WriteThroughNoAllocate));
    cache.access(10, false); // allocate via load
    AccessOutcome out = cache.access(10, true);
    EXPECT_TRUE(out.hit);
    EXPECT_TRUE(out.writeThrough);
    // WT caches never hold dirty lines.
    EXPECT_FALSE(cache.modified(cache.find(10)));
}

TEST(Cache, EvictingModifiedLineWritesBack)
{
    CacheConfig c = tinyConfig(WritePolicy::WriteBackAllocate);
    c.capacityBytes = 2 * 64; // 2 lines, 2 ways: one set
    Cache cache(c);
    cache.access(1, true); // dirty
    cache.access(2, false);
    AccessOutcome out = cache.access(3, false); // evicts line 1 (LRU)
    EXPECT_TRUE(out.evictedValid);
    EXPECT_EQ(out.evictedLine, 1u);
    EXPECT_TRUE(out.writeback);
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, EvictingCleanLineNoWriteback)
{
    CacheConfig c = tinyConfig(WritePolicy::WriteBackAllocate);
    c.capacityBytes = 2 * 64;
    Cache cache(c);
    cache.access(1, false);
    cache.access(2, false);
    AccessOutcome out = cache.access(3, false);
    EXPECT_TRUE(out.evictedValid);
    EXPECT_FALSE(out.writeback);
}

TEST(Cache, FillInstallsWithoutCountingAccess)
{
    Cache cache(tinyConfig(WritePolicy::WriteBackAllocate));
    AccessOutcome out = cache.fill(42, false);
    EXPECT_TRUE(out.filled);
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_TRUE(cache.contains(42));
}

TEST(Cache, FillOnResidentLineOrsModified)
{
    Cache cache(tinyConfig(WritePolicy::WriteBackAllocate));
    cache.fill(42, false);
    EXPECT_FALSE(cache.modified(cache.find(42)));
    cache.fill(42, true);
    EXPECT_TRUE(cache.modified(cache.find(42)));
    cache.fill(42, false); // must not clear
    EXPECT_TRUE(cache.modified(cache.find(42)));
}

TEST(Cache, InvalidateClearsLine)
{
    Cache cache(tinyConfig(WritePolicy::WriteBackAllocate));
    cache.access(10, true);
    EXPECT_TRUE(cache.invalidate(10));
    EXPECT_FALSE(cache.contains(10));
    EXPECT_FALSE(cache.invalidate(10));
}

TEST(Cache, SkewedConfigWorksEndToEnd)
{
    CacheConfig c;
    c.capacityBytes = 512 * 1024;
    c.ways = 4;
    c.skewed = true;
    Cache cache(c);
    // Fill with a sequential run the size of the cache; a healthy
    // skewed cache retains most of it.
    const uint64_t lines = c.numLines();
    for (uint64_t l = 0; l < lines; ++l)
        cache.access(0x4000000 + l, false);
    uint64_t resident = 0;
    for (uint64_t l = 0; l < lines; ++l)
        resident += cache.contains(0x4000000 + l) ? 1 : 0;
    EXPECT_GT(resident, lines * 3 / 4);
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

uint64_t
outcomeMix(uint64_t hash, const AccessOutcome &out)
{
    hash = fnvMix(hash, uint64_t{out.hit} | uint64_t{out.filled} << 1 |
                            uint64_t{out.writeThrough} << 2 |
                            uint64_t{out.evictedValid} << 3 |
                            uint64_t{out.writeback} << 4);
    return fnvMix(hash, out.evictedLine);
}

/**
 * Digest of a fixed Cache stimulus: loads and stores through
 * access(), fill() with and without the modified bit (ORed into a
 * resident frame), prefetched marks consumed by later hits,
 * contains(), invalidate() and a periodic invalidateAll(). Every
 * AccessOutcome, the frame's modified bit after each operation, the
 * dirty count of every invalidateAll() and the final stats go into
 * the hash. `seed` seeds the stimulus.
 */
uint64_t
cacheDigest(const CacheConfig &config, uint64_t seed)
{
    Cache cache(config);
    const uint64_t lines = config.numLines();
    const uint64_t ops = std::max<uint64_t>(6 * lines, 20'000);
    const uint64_t span = lines + lines / 2;
    Rng rng(0xcac4e ^ lines ^ seed);
    uint64_t sweep = 0;
    uint64_t hash = 0xcbf29ce484222325ull;
    for (uint64_t t = 1; t <= ops; ++t) {
        uint64_t x;
        if (rng.below(2) == 0) {
            sweep = sweep + 1 == span ? 0 : sweep + 1;
            x = sweep;
        } else {
            x = rng.below(4 * lines);
        }
        const uint64_t line = 0x4000000 + x;
        const uint64_t op = rng.below(1000);
        if (op < 700) {
            const AccessOutcome out = cache.access(line, rng.below(3) == 0);
            hash = outcomeMix(hash, out);
            hash = fnvMix(hash, out.frame != Cache::kNoFrame);
            if (out.frame != Cache::kNoFrame) {
                hash = fnvMix(hash, cache.modified(out.frame));
                hash = fnvMix(hash, cache.prefetched(out.frame));
                cache.setPrefetched(out.frame, false);
            }
        } else if (op < 850) {
            const AccessOutcome out = cache.fill(line, rng.below(2) == 0);
            hash = outcomeMix(hash, out);
            hash = fnvMix(hash, cache.modified(out.frame));
            if (out.filled && rng.below(2) == 0)
                cache.setPrefetched(out.frame, true);
        } else if (op < 900) {
            hash = fnvMix(hash, cache.contains(line));
        } else {
            hash = fnvMix(hash, cache.invalidate(line));
        }
        if (t % (ops / 4) == 0)
            hash = fnvMix(hash, cache.invalidateAll());
    }
    const CacheStats &s = cache.stats();
    hash = fnvMix(hash, s.accesses);
    hash = fnvMix(hash, s.hits);
    hash = fnvMix(hash, s.misses);
    return fnvMix(hash, s.writebacks);
}

CacheConfig
goldenConfig(uint64_t bytes, unsigned ways, bool skewed, WritePolicy write)
{
    CacheConfig c;
    c.capacityBytes = bytes;
    c.ways = ways;
    c.skewed = skewed;
    c.write = write;
    return c;
}

/* Recorded from the Cache over the virtual tag store with 48-byte
 * frames and pointer outcomes that the SoA frame array replaced. */

TEST(CacheGolden, WriteThroughL1ReproducesRecordedDigest)
{
    EXPECT_EQ(cacheDigest(goldenConfig(16 * 1024, 4, false,
                                       WritePolicy::WriteThroughNoAllocate),
                          1),
              0xabeb741c2ec326eeull);
}

TEST(CacheGolden, WriteBackL1ReproducesRecordedDigest)
{
    EXPECT_EQ(cacheDigest(goldenConfig(16 * 1024, 4, false,
                                       WritePolicy::WriteBackAllocate),
                          1),
              0xc371a77a61d3ed39ull);
}

TEST(CacheGolden, SkewedL2ReproducesRecordedDigests)
{
    const uint64_t digests[] = {0xe369e6a8e6ba1a3bull, 0x6b874e70f2f0eb82ull, 0x818eb93004e5a15full, 0x77654ca622d9b43dull};
    for (uint64_t seed = 11; seed <= 14; ++seed) {
        EXPECT_EQ(cacheDigest(goldenConfig(512 * 1024, 4, true,
                                           WritePolicy::WriteBackAllocate),
                              seed),
                  digests[seed - 11])
            << "seed " << seed;
    }
}

TEST(CacheGolden, L3ReproducesRecordedDigest)
{
    EXPECT_EQ(cacheDigest(goldenConfig(512 * 1024, 16, false,
                                       WritePolicy::WriteBackAllocate),
                          99),
              0x8dc8189e0fcae666ull);
}

} // namespace
} // namespace xmig
