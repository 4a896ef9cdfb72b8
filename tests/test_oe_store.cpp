/**
 * @file
 * Unit tests for O_e storage: unlimited map and the finite affinity
 * cache (section 3.5 / 4.2), plus golden digests of the finite
 * cache's full decision stream under every geometry and replacement
 * policy.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/oe_store.hpp"
#include "core/soa_oe_store.hpp"
#include "util/rng.hpp"

namespace xmig {
namespace {

TEST(UnboundedOeStore, MissInstallsDelta)
{
    UnboundedOeStore store(16);
    // First lookup of a line must force A_e = 0 via O_e = Delta.
    EXPECT_EQ(store.lookup(100, 42), 42);
    EXPECT_EQ(store.stats().misses, 1u);
    // Second lookup returns the stored value regardless of Delta.
    EXPECT_EQ(store.lookup(100, -7), 42);
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(UnboundedOeStore, StoreOverwrites)
{
    UnboundedOeStore store(16);
    store.lookup(5, 0);
    store.store(5, 123);
    EXPECT_EQ(store.lookup(5, 0), 123);
    EXPECT_EQ(store.peek(5), std::optional<int64_t>(123));
    EXPECT_EQ(store.peek(6), std::nullopt);
}

TEST(UnboundedOeStore, SaturatesToAffinityWidth)
{
    UnboundedOeStore store(8); // [-128, 127]
    store.store(1, 1000);
    EXPECT_EQ(store.lookup(1, 0), 127);
    store.store(1, -1000);
    EXPECT_EQ(store.lookup(1, 0), -128);
    EXPECT_EQ(store.lookup(2, 999), 127); // miss-install saturates too
}

AffinityCacheConfig
tinyCache()
{
    AffinityCacheConfig c;
    c.entries = 16;
    c.ways = 4;
    c.skewed = false;
    c.repl = ReplPolicy::Lru;
    return c;
}

TEST(SoaAffinityStore, MissForcesDelta)
{
    SoaAffinityStore store(tinyCache());
    EXPECT_EQ(store.lookup(9, -5), -5);
    EXPECT_EQ(store.lookup(9, 100), -5); // now a hit
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(SoaAffinityStore, CapacityIsBounded)
{
    SoaAffinityStore store(tinyCache());
    for (uint64_t line = 0; line < 1000; ++line)
        store.lookup(line, 7);
    EXPECT_LE(store.occupancy(), 16u);
}

TEST(SoaAffinityStore, EvictionDropsPayload)
{
    AffinityCacheConfig c = tinyCache();
    c.entries = 4;
    c.ways = 4; // one set: easy to overflow
    SoaAffinityStore store(c);
    store.lookup(1, 0);
    store.store(1, 77);
    for (uint64_t line = 2; line < 10; ++line)
        store.lookup(line, 0);
    // Line 1 must have been displaced; a fresh lookup re-installs
    // Delta, not the stale 77.
    EXPECT_EQ(store.peek(1), std::nullopt);
    EXPECT_EQ(store.lookup(1, 5), 5);
}

TEST(SoaAffinityStore, StoreReallocatesAfterDisplacement)
{
    AffinityCacheConfig c = tinyCache();
    c.entries = 4;
    SoaAffinityStore store(c);
    store.lookup(1, 0);
    for (uint64_t line = 2; line < 10; ++line)
        store.lookup(line, 0);
    // Line 1's entry is gone; a write-back from the R-window must
    // re-allocate (write-allocate affinity cache).
    store.store(1, -3);
    EXPECT_EQ(store.peek(1), std::optional<int64_t>(-3));
}

TEST(SoaAffinityStore, StorageArithmeticMatchesPaper)
{
    // Section 3.5: 32k entries x (20-bit tag + 16-bit affinity +
    // 2 age bits) = 152 KB; 8k entries = 38 KB.
    AffinityCacheConfig c;
    c.entries = 32 * 1024;
    SoaAffinityStore big(c);
    EXPECT_EQ(big.storageBits(20) / 8 / 1024, 152u);
    c.entries = 8 * 1024;
    SoaAffinityStore small(c);
    EXPECT_EQ(small.storageBits(20) / 8 / 1024, 38u);
}

TEST(OeStoreStats, UnboundedStoreAccounting)
{
    UnboundedOeStore store(16);
    store.lookup(1, 0); // miss
    store.lookup(1, 0); // hit
    store.lookup(2, 0); // miss
    store.store(3, 7);
    store.lookup(3, 0); // hit (direct store created the entry)
    const OeStoreStats &s = store.stats();
    EXPECT_EQ(s.lookups, 4u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.hits(), 2u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.evictions, 0u); // unbounded storage never evicts
    EXPECT_EQ(store.entries(), 3u);
}

TEST(OeStoreStats, AffinityCacheCountsEvictions)
{
    // A tiny cache under a working set 8x its capacity must evict;
    // every eviction is counted and hits + misses stay consistent.
    AffinityCacheConfig c;
    c.entries = 64;
    c.ways = 4;
    c.skewed = false;
    SoaAffinityStore store(c);
    const uint64_t kLines = 512;
    const int rounds = 4;
    for (int r = 0; r < rounds; ++r) {
        for (uint64_t line = 0; line < kLines; ++line)
            store.lookup(line, 0);
    }
    const OeStoreStats &s = store.stats();
    EXPECT_EQ(s.lookups, kLines * rounds);
    EXPECT_EQ(s.hits(), s.lookups - s.misses);
    EXPECT_GT(s.evictions, 0u);
    // Each eviction displaced an earlier fill; the cache can never
    // have evicted more entries than it allocated.
    EXPECT_LE(s.evictions, s.misses + s.stores);
    // Occupancy + evictions = entries ever allocated by misses (no
    // store() fills happened here).
    EXPECT_EQ(store.occupancy() + s.evictions, s.misses);
    EXPECT_LE(store.occupancy(), c.entries);
}

TEST(OeStoreStats, StoreDisplacementCountsAsEviction)
{
    AffinityCacheConfig c;
    c.entries = 16;
    c.ways = 2;
    c.skewed = false;
    SoaAffinityStore store(c);
    // Fill via direct store() writes (the R-window write-back path).
    for (uint64_t line = 0; line < 256; ++line)
        store.store(line, 1);
    const OeStoreStats &s = store.stats();
    EXPECT_EQ(s.stores, 256u);
    EXPECT_EQ(s.lookups, 0u);
    EXPECT_GT(s.evictions, 0u);
    EXPECT_EQ(store.occupancy() + s.evictions, s.stores);
}

TEST(SoaAffinityStore, SkewedVariantWorks)
{
    AffinityCacheConfig c;
    c.entries = 8 * 1024;
    c.ways = 4;
    c.skewed = true;
    c.repl = ReplPolicy::Age;
    SoaAffinityStore store(c);
    for (uint64_t line = 0; line < 6000; ++line)
        store.lookup(0x4000000 + line, 3);
    // A sequential working-set below capacity should mostly fit.
    EXPECT_GT(store.occupancy(), 5000u);
    EXPECT_LE(store.occupancy(), 8 * 1024u);
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
 * Digest of a fixed store stimulus over `ops` operations: lookups
 * with wide Deltas, write-backs, peeks, both fault hooks, and a
 * snapshot/restore round trip every ops/8 operations. Lines mix a
 * circular sweep over 1.5x capacity with uniform picks over 4x
 * capacity, so hits, evictions and write-back re-allocations all
 * occur; values cross the 16-bit saturation bounds. Every returned
 * value, every snapshot and the final counters go into the hash.
 */
uint64_t
storeDigest(const AffinityCacheConfig &c, uint64_t ops)
{
    SoaAffinityStore store(c);
    Rng rng(0x5eed ^ c.entries);
    Rng faults(99);
    const uint64_t span = c.entries + c.entries / 2;
    uint64_t sweep = 0;
    uint64_t hash = 0xcbf29ce484222325ull;
    std::vector<OeEntrySnapshot> snap;
    for (uint64_t t = 1; t <= ops; ++t) {
        uint64_t x;
        if (rng.below(2) == 0) {
            sweep = sweep + 1 == span ? 0 : sweep + 1;
            x = sweep;
        } else {
            x = rng.below(4 * c.entries);
        }
        const uint64_t line = 0x4000000 + x;
        const uint64_t op = rng.below(1000);
        if (op < 550) {
            const int64_t delta =
                static_cast<int64_t>(rng.below(80'001)) - 40'000;
            hash = fnvMix(hash, static_cast<uint64_t>(
                                    store.lookup(line, delta)));
        } else if (op < 900) {
            const int64_t oe =
                static_cast<int64_t>(rng.below(100'001)) - 50'000;
            store.store(line, oe);
        } else if (op < 990) {
            const std::optional<int64_t> v = store.peek(line);
            hash = fnvMix(hash, v ? static_cast<uint64_t>(*v) : ~0ull);
        } else if (op < 995) {
            hash = fnvMix(hash, store.corruptRandomEntry(faults));
        } else {
            hash = fnvMix(hash, store.dropRandomEntry(faults));
        }
        if (t % (ops / 8) == 0) {
            snap.clear();
            store.snapshotEntries(snap);
            hash = fnvMix(hash, snap.size());
            for (const OeEntrySnapshot &e : snap) {
                hash = fnvMix(hash, e.line);
                hash = fnvMix(hash, static_cast<uint64_t>(e.oe));
            }
            const OeStoreStats stats = store.stats();
            store.restoreEntries(snap, stats);
        }
    }
    const OeStoreStats &s = store.stats();
    hash = fnvMix(hash, s.lookups);
    hash = fnvMix(hash, s.misses);
    hash = fnvMix(hash, s.stores);
    hash = fnvMix(hash, s.evictions);
    return fnvMix(hash, store.occupancy());
}

AffinityCacheConfig
goldenCache(uint64_t entries, bool skewed, ReplPolicy repl)
{
    AffinityCacheConfig c;
    c.entries = entries;
    c.ways = 4;
    c.skewed = skewed;
    c.repl = repl;
    return c;
}

/** One recorded digest: geometry, policy and the expected hash. */
struct GoldenCase
{
    uint64_t entries;
    bool skewed;
    ReplPolicy repl;
    uint64_t digest;
};

constexpr uint64_t kGoldenOps = 400'000;

/*
 * Recorded from the array-of-structures affinity cache this store
 * replaced (a virtual tag store with the O_e value in a payload
 * field of each frame), which produced the same digests for every
 * case below, as does the FrameArray-backed store.
 * The Age and Lru rows agree: Age evicts the highest 2-bit age and
 * breaks ties by LRU timestamp, and an entry's age only grows with
 * the time since its last touch, so both policies pick the same
 * victim.
 */
constexpr GoldenCase kGolden[] = {
    {64, true, ReplPolicy::Age, 0x43392ad900cf2c58ull},
    {64, true, ReplPolicy::Lru, 0x43392ad900cf2c58ull},
    {64, true, ReplPolicy::Fifo, 0x071c9813d16b420bull},
    {64, true, ReplPolicy::Random, 0x66ab240b0e5fece5ull},
    {1024, true, ReplPolicy::Age, 0x65757e2759d0f3c3ull},
    {1024, true, ReplPolicy::Lru, 0x65757e2759d0f3c3ull},
    {1024, true, ReplPolicy::Fifo, 0xaaf5c631b749fd48ull},
    {1024, true, ReplPolicy::Random, 0xe80d5319edb11ec5ull},
    {8192, true, ReplPolicy::Age, 0x4fb2e76ead97d44bull},
    {8192, true, ReplPolicy::Lru, 0x4fb2e76ead97d44bull},
    {8192, true, ReplPolicy::Fifo, 0x2d48ec6fab15ba95ull},
    {8192, true, ReplPolicy::Random, 0x02189a1f3fbe574full},
    {64, false, ReplPolicy::Age, 0x5a26146c84b3317aull},
    {64, false, ReplPolicy::Lru, 0x5a26146c84b3317aull},
    {64, false, ReplPolicy::Fifo, 0x8ff26d7004486945ull},
    {64, false, ReplPolicy::Random, 0x12062cda03f68320ull},
    {1024, false, ReplPolicy::Age, 0xeba3937b9e69c94cull},
    {1024, false, ReplPolicy::Lru, 0xeba3937b9e69c94cull},
    {1024, false, ReplPolicy::Fifo, 0xc2162c7224ef6dabull},
    {1024, false, ReplPolicy::Random, 0x2600247612fc1e83ull},
    {8192, false, ReplPolicy::Age, 0x4c2f5ec7f6423816ull},
    {8192, false, ReplPolicy::Lru, 0x4c2f5ec7f6423816ull},
    {8192, false, ReplPolicy::Fifo, 0x12c1ecd1889c64a1ull},
    {8192, false, ReplPolicy::Random, 0xfd41a0a45488da1cull},
};

void
expectGolden(bool skewed)
{
    for (const GoldenCase &g : kGolden) {
        if (g.skewed != skewed)
            continue;
        EXPECT_EQ(storeDigest(goldenCache(g.entries, g.skewed, g.repl),
                              kGoldenOps),
                  g.digest)
            << g.entries << " entries, policy "
            << static_cast<int>(g.repl);
    }
}

TEST(AffinityStoreGolden, PaperConfigReproducesRecordedDigest)
{
    // Section 4.2: 8k entries, 4-way skewed, age replacement.
    const AffinityCacheConfig paper;
    EXPECT_EQ(storeDigest(paper, kGoldenOps), 0x4fb2e76ead97d44bull);
}

TEST(AffinityStoreGolden, SkewedCachesReproduceRecordedDigests)
{
    expectGolden(true);
}

TEST(AffinityStoreGolden, SetAssociativeCachesReproduceRecordedDigests)
{
    expectGolden(false);
}


/*
 * Age picks the LRU victim on every golden stream: a frame's 2-bit
 * age only grows with the time since its last touch and Age breaks
 * ties by the LRU stamp, so the two victim streams are identical.
 * This passed against the 2-bit age sweep, which is why
 * ReplPolicy::Age is now an alias of Lru.
 */
TEST(AffinityStoreGolden, AgeEqualsLru)
{
    for (const bool skewed : {true, false}) {
        for (const uint64_t entries : {64u, 1024u, 8192u}) {
            EXPECT_EQ(storeDigest(goldenCache(entries, skewed,
                                              ReplPolicy::Age),
                                  kGoldenOps),
                      storeDigest(goldenCache(entries, skewed,
                                              ReplPolicy::Lru),
                                  kGoldenOps))
                << entries << " entries, skewed " << skewed;
        }
    }
}

} // namespace
} // namespace xmig
