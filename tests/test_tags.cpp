/**
 * @file
 * Unit tests for the frame array in its set-associative and skewed
 * organizations, plus golden digests of its decision stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>

#include "cache/frames.hpp"
#include "util/rng.hpp"

namespace xmig {
namespace {

constexpr uint32_t kNoFrame = FrameArray::kNoFrame;

/** Probe for `line`; allocate it on a miss. Returns the eviction. */
FrameArray::Eviction
insert(FrameArray &tags, uint64_t line)
{
    FrameArray::Eviction evicted;
    tags.allocate(line, tags.slots(line), evicted);
    return evicted;
}

TEST(SetAssocTags, FindAfterAllocate)
{
    FrameArray tags(16, 4, false, ReplPolicy::Lru);
    EXPECT_FALSE(insert(tags, 0x1234).valid);
    const uint32_t f = tags.find(0x1234);
    ASSERT_NE(f, kNoFrame);
    EXPECT_EQ(tags.line(f), 0x1234u);
    EXPECT_TRUE(tags.valid(f));
    EXPECT_FALSE(tags.modified(f));
    EXPECT_EQ(tags.find(0x9999), kNoFrame);
}

TEST(SetAssocTags, LruEvictsLeastRecentlyUsed)
{
    FrameArray tags(1, 2, false, ReplPolicy::Lru); // one 2-way set
    insert(tags, 1);
    insert(tags, 2);
    // Touch 1 so 2 becomes LRU.
    tags.touch(tags.find(1));
    const FrameArray::Eviction ev = insert(tags, 3);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, 2u);
    EXPECT_NE(tags.find(1), kNoFrame);
    EXPECT_EQ(tags.find(2), kNoFrame);
    EXPECT_NE(tags.find(3), kNoFrame);
}

TEST(SetAssocTags, FifoIgnoresTouches)
{
    FrameArray tags(1, 2, false, ReplPolicy::Fifo);
    insert(tags, 1);
    insert(tags, 2);
    tags.touch(tags.find(1)); // must not save line 1 under FIFO
    const FrameArray::Eviction ev = insert(tags, 3);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, 1u);
}

TEST(SetAssocTags, PrefersInvalidFrames)
{
    FrameArray tags(1, 4, false, ReplPolicy::Lru);
    for (uint64_t l = 1; l <= 4; ++l) {
        EXPECT_FALSE(insert(tags, l).valid)
            << "no eviction while invalid frames remain";
    }
    EXPECT_TRUE(insert(tags, 5).valid);
}

TEST(SetAssocTags, SetIndexingSeparatesSets)
{
    FrameArray tags(4, 1, false, ReplPolicy::Lru); // direct-mapped, 4 sets
    // Lines 0..3 land in distinct sets: no evictions.
    for (uint64_t l = 0; l < 4; ++l)
        EXPECT_FALSE(insert(tags, l).valid);
    // Line 4 conflicts with line 0 (same set).
    const FrameArray::Eviction ev = insert(tags, 4);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.line, 0u);
}

TEST(SetAssocTags, InvalidateRemoves)
{
    FrameArray tags(16, 2, false, ReplPolicy::Lru);
    insert(tags, 7);
    EXPECT_TRUE(tags.invalidate(7));
    EXPECT_EQ(tags.find(7), kNoFrame);
    EXPECT_FALSE(tags.invalidate(7));
}

TEST(SetAssocTags, OccupancyAndForEach)
{
    FrameArray tags(8, 2, false, ReplPolicy::Lru);
    for (uint64_t l = 0; l < 10; ++l)
        insert(tags, l);
    EXPECT_EQ(tags.occupancy(), 10u);
    uint64_t seen = 0;
    tags.forEachValid([&](uint32_t) { ++seen; });
    EXPECT_EQ(seen, 10u);
    EXPECT_EQ(tags.frames(), 16u);
}

TEST(SetAssocTags, RandomPolicyEvictsSomething)
{
    FrameArray tags(1, 4, false, ReplPolicy::Random, 3);
    for (uint64_t l = 1; l <= 4; ++l)
        insert(tags, l);
    const FrameArray::Eviction ev = insert(tags, 5);
    EXPECT_TRUE(ev.valid);
    EXPECT_GE(ev.line, 1u);
    EXPECT_LE(ev.line, 4u);
    EXPECT_EQ(tags.occupancy(), 4u);
}

TEST(SkewedTags, FindAfterAllocate)
{
    FrameArray tags(64, 4, true, ReplPolicy::Lru);
    insert(tags, 0xabcdef);
    const uint32_t f = tags.find(0xabcdef);
    ASSERT_NE(f, kNoFrame);
    EXPECT_EQ(tags.line(f), 0xabcdefu);
    EXPECT_TRUE(tags.invalidate(0xabcdef));
    EXPECT_EQ(tags.find(0xabcdef), kNoFrame);
}

TEST(SkewedTags, SequentialFillUsesMostOfCapacity)
{
    // The skew property: consecutive lines should occupy nearly the
    // whole cache, not fight over a few sets.
    FrameArray tags(256, 4, true, ReplPolicy::Lru); // 1024 frames
    for (uint64_t l = 0; l < 1024; ++l)
        insert(tags, 0x4000000 + l);
    EXPECT_GT(tags.occupancy(), 800u);
}

TEST(SkewedTags, AgePolicyEvicts)
{
    FrameArray tags(16, 4, true, ReplPolicy::Age);
    for (uint64_t l = 0; l < 500; ++l)
        insert(tags, l);
    EXPECT_LE(tags.occupancy(), 64u);
    // Recently touched entries survive longer than untouched ones on
    // average; at minimum the structure stays consistent.
    uint64_t n = 0;
    tags.forEachValid([&](uint32_t f) {
        EXPECT_TRUE(tags.valid(f));
        ++n;
    });
    EXPECT_EQ(n, tags.occupancy());
}

TEST(SkewedTags, SlotsNameOneFramePerBank)
{
    FrameArray tags(64, 4, true, ReplPolicy::Lru);
    const FrameArray::Slots s = tags.slots(0xabcdef);
    for (unsigned b = 0; b < 4; ++b) {
        EXPECT_GE(tags.candidate(s, b), b * 64u);
        EXPECT_LT(tags.candidate(s, b), (b + 1) * 64u);
    }
    // Bank 0 indexes straight; a set-associative array is set-major.
    EXPECT_EQ(tags.candidate(s, 0), 0xabcdefu & 63);
    FrameArray sa(64, 4, false, ReplPolicy::Lru);
    EXPECT_EQ(sa.candidate(sa.slots(0xabcdef), 2), (0xabcdefu & 63) * 4 + 2);
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

/** One pinned geometry: sets (per bank when skewed) x ways. */
struct TagGeometry
{
    uint64_t sets;
    unsigned ways;
};

constexpr TagGeometry kL1{64, 4};     // 16-KB 4-way L1
constexpr TagGeometry kL2{2048, 4};   // 512-KB 4-way L2
constexpr TagGeometry kL3{512, 16};   // 512-KB 16-way L3
constexpr TagGeometry kOneSet{1, 8};  // a single 8-way set

/**
 * Digest of a fixed tag-store stimulus: accesses (probe, touch on a
 * hit, allocate on a miss, sometimes dirtying the frame), bare
 * probes, touch-only probes and invalidations. Lines mix a circular
 * sweep over 1.5x capacity with uniform picks over 4x capacity.
 * Every hit/miss, victim line, evictedValid, writeback (victim
 * modified bit) and periodic occupancy goes into the hash, then the
 * final contents in frame order.
 */
uint64_t
tagDigest(const TagGeometry &g, bool skewed, ReplPolicy policy,
          uint64_t seed)
{
    FrameArray tags(g.sets, g.ways, skewed, policy, seed);
    const uint64_t frames = g.sets * g.ways;
    const uint64_t ops = std::max<uint64_t>(8 * frames, 20'000);
    const uint64_t span = frames + frames / 2;
    Rng rng(0x7a65 ^ frames ^ seed);
    uint64_t sweep = 0;
    uint64_t hash = 0xcbf29ce484222325ull;
    for (uint64_t t = 1; t <= ops; ++t) {
        uint64_t x;
        if (rng.below(2) == 0) {
            sweep = sweep + 1 == span ? 0 : sweep + 1;
            x = sweep;
        } else {
            x = rng.below(4 * frames);
        }
        const uint64_t line = 0x4000000 + x;
        const uint64_t op = rng.below(1000);
        const FrameArray::Slots slots = tags.slots(line);
        if (op < 600) {
            uint32_t f = tags.find(line, slots);
            if (f != kNoFrame) {
                tags.touch(f);
                hash = fnvMix(hash, 1);
            } else {
                FrameArray::Eviction victim;
                f = tags.allocate(line, slots, victim);
                hash = fnvMix(hash, victim.valid ? 2 : 3);
                if (victim.valid) {
                    hash = fnvMix(hash, victim.line);
                    hash = fnvMix(hash, victim.modified);
                }
            }
            if (rng.below(4) == 0)
                tags.setModified(f, true);
        } else if (op < 850) {
            const uint32_t f = tags.find(line, slots);
            hash = fnvMix(hash, f != kNoFrame ? 4 + tags.modified(f) : 6);
        } else if (op < 950) {
            const uint32_t f = tags.find(line, slots);
            if (f != kNoFrame)
                tags.touch(f);
            hash = fnvMix(hash, f != kNoFrame);
        } else {
            hash = fnvMix(hash, tags.invalidate(line));
        }
        if (t % (ops / 16) == 0)
            hash = fnvMix(hash, tags.occupancy());
    }
    tags.forEachValid([&](uint32_t f) {
        hash = fnvMix(hash, tags.line(f));
        hash = fnvMix(hash, tags.modified(f));
    });
    return fnvMix(hash, tags.occupancy());
}

/** tagDigest() folded over `seeds` (the L2s use seeds 11-14). */
uint64_t
tagDigest(const TagGeometry &g, bool skewed, ReplPolicy policy,
          std::initializer_list<uint64_t> seeds)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (uint64_t seed : seeds)
        hash = fnvMix(hash, tagDigest(g, skewed, policy, seed));
    return hash;
}

constexpr std::initializer_list<uint64_t> kL2Seeds = {11, 12, 13, 14};

/** One recorded digest: organization, policy and the expected hash. */
struct TagGoldenCase
{
    bool skewed;
    ReplPolicy repl;
    uint64_t digest;
};

/* Recorded from the virtual tag store with 48-byte frames that the
 * SoA frame array replaced; the frame array reproduces every one. */
constexpr TagGoldenCase kL1Golden[] = {
    {false, ReplPolicy::Lru, 0x16a9697b25ac86e3ull},
    {false, ReplPolicy::Fifo, 0x128d19ac13c223cbull},
    {false, ReplPolicy::Random, 0xc1c9f1a6eb875fc2ull},
    {false, ReplPolicy::Age, 0x16a9697b25ac86e3ull},
    {true, ReplPolicy::Lru, 0x3286ccc3288963a6ull},
    {true, ReplPolicy::Fifo, 0x60fb9c6dd22f8fd6ull},
    {true, ReplPolicy::Random, 0xefe8509941b343c8ull},
    {true, ReplPolicy::Age, 0x3286ccc3288963a6ull},
};
constexpr TagGoldenCase kL2Golden[] = {
    {false, ReplPolicy::Lru, 0x35293d11ecde2adfull},
    {false, ReplPolicy::Fifo, 0xe60ea83054eca084ull},
    {false, ReplPolicy::Random, 0xea2fbaab7ca0379full},
    {false, ReplPolicy::Age, 0x35293d11ecde2adfull},
    {true, ReplPolicy::Lru, 0xd5300862a5c25985ull},
    {true, ReplPolicy::Fifo, 0xd73aa590f22b7e09ull},
    {true, ReplPolicy::Random, 0x117c44b6b3dd3895ull},
    {true, ReplPolicy::Age, 0xd5300862a5c25985ull},
};
constexpr TagGoldenCase kL3Golden[] = {
    {false, ReplPolicy::Lru, 0x0b803b7882879c3cull},
    {false, ReplPolicy::Fifo, 0xc96dcfffd48a1eadull},
    {false, ReplPolicy::Random, 0xc3a028d79509eb95ull},
    {false, ReplPolicy::Age, 0x0b803b7882879c3cull},
    {true, ReplPolicy::Lru, 0x9db1121fe51cacc9ull},
    {true, ReplPolicy::Fifo, 0x8311e450cf3f3d20ull},
    {true, ReplPolicy::Random, 0x2feb64606cddece8ull},
    {true, ReplPolicy::Age, 0x9db1121fe51cacc9ull},
};
constexpr TagGoldenCase kOneSetGolden[] = {
    {false, ReplPolicy::Lru, 0x78b75b7b41d59396ull},
    {false, ReplPolicy::Fifo, 0xd4dd1c9d67826337ull},
    {false, ReplPolicy::Random, 0xa3635515231db814ull},
    {false, ReplPolicy::Age, 0x78b75b7b41d59396ull},
    {true, ReplPolicy::Lru, 0x78b75b7b41d59396ull},
    {true, ReplPolicy::Fifo, 0xd4dd1c9d67826337ull},
    {true, ReplPolicy::Random, 0xa3635515231db814ull},
    {true, ReplPolicy::Age, 0x78b75b7b41d59396ull},
};

template <size_t N>
void
expectTagGolden(const TagGeometry &g, const TagGoldenCase (&cases)[N],
                std::initializer_list<uint64_t> seeds)
{
    for (const TagGoldenCase &c : cases) {
        EXPECT_EQ(tagDigest(g, c.skewed, c.repl, seeds), c.digest)
            << (c.skewed ? "skewed" : "set-assoc") << " policy "
            << static_cast<int>(c.repl);
    }
}

TEST(TagStoreGolden, L1GeometryReproducesRecordedDigests)
{
    expectTagGolden(kL1, kL1Golden, {1});
}

TEST(TagStoreGolden, L2GeometryReproducesRecordedDigests)
{
    expectTagGolden(kL2, kL2Golden, kL2Seeds);
}

TEST(TagStoreGolden, L3GeometryReproducesRecordedDigests)
{
    expectTagGolden(kL3, kL3Golden, {1});
}

TEST(TagStoreGolden, SingleSetReproducesRecordedDigests)
{
    expectTagGolden(kOneSet, kOneSetGolden, {1});
}

/*
 * The paper's age-based replacement picks the LRU victim on every
 * stream: a frame's 2-bit age only grows with the time since its
 * last touch, so the oldest age always contains the oldest LRU
 * stamp, and Age breaks ties by that stamp. Stamps are unique (the
 * clock advances on every touch and allocate), so the two policies
 * evict the same frame every time. This passed against the 2-bit age
 * sweep before ReplPolicy::Age became an alias of Lru; the recorded
 * digests above pin that the alias changed no stream.
 */
TEST(TagStoreGolden, AgeEqualsLru)
{
    for (const bool skewed : {false, true}) {
        EXPECT_EQ(tagDigest(kL1, skewed, ReplPolicy::Age, {1}),
                  tagDigest(kL1, skewed, ReplPolicy::Lru, {1}));
        EXPECT_EQ(tagDigest(kL2, skewed, ReplPolicy::Age, kL2Seeds),
                  tagDigest(kL2, skewed, ReplPolicy::Lru, kL2Seeds));
        EXPECT_EQ(tagDigest(kL3, skewed, ReplPolicy::Age, {1}),
                  tagDigest(kL3, skewed, ReplPolicy::Lru, {1}));
        EXPECT_EQ(tagDigest(kOneSet, skewed, ReplPolicy::Age, {1}),
                  tagDigest(kOneSet, skewed, ReplPolicy::Lru, {1}));
    }
}

} // namespace
} // namespace xmig
