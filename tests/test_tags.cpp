/**
 * @file
 * Unit tests for the frame array in its set-associative and skewed
 * organizations, plus golden digests of its decision stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <vector>

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
    FrameArray tags(16, 4, false);
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
    FrameArray tags(1, 2, false); // one 2-way set
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

TEST(SetAssocTags, PrefersInvalidFrames)
{
    FrameArray tags(1, 4, false);
    for (uint64_t l = 1; l <= 4; ++l) {
        EXPECT_FALSE(insert(tags, l).valid)
            << "no eviction while invalid frames remain";
    }
    EXPECT_TRUE(insert(tags, 5).valid);
}

TEST(SetAssocTags, SetIndexingSeparatesSets)
{
    FrameArray tags(4, 1, false); // direct-mapped, 4 sets
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
    FrameArray tags(16, 2, false);
    insert(tags, 7);
    EXPECT_TRUE(tags.invalidate(7));
    EXPECT_EQ(tags.find(7), kNoFrame);
    EXPECT_FALSE(tags.invalidate(7));
}

TEST(SetAssocTags, OccupancyAndForEach)
{
    FrameArray tags(8, 2, false);
    for (uint64_t l = 0; l < 10; ++l)
        insert(tags, l);
    EXPECT_EQ(tags.occupancy(), 10u);
    uint64_t seen = 0;
    tags.forEachValid([&](uint32_t) { ++seen; });
    EXPECT_EQ(seen, 10u);
    EXPECT_EQ(tags.frames(), 16u);
}

TEST(SkewedTags, FindAfterAllocate)
{
    FrameArray tags(64, 4, true);
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
    FrameArray tags(256, 4, true); // 1024 frames
    for (uint64_t l = 0; l < 1024; ++l)
        insert(tags, 0x4000000 + l);
    EXPECT_GT(tags.occupancy(), 800u);
}

/* The affinity cache's age-based replacement is the LRU of every
 * frame array (see the golden tables below). */
TEST(SkewedTags, AgePolicyEvicts)
{
    FrameArray tags(16, 4, true);
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
    FrameArray tags(64, 4, true);
    const FrameArray::Slots s = tags.slots(0xabcdef);
    for (unsigned b = 0; b < 4; ++b) {
        EXPECT_GE(tags.candidate(s, b), b * 64u);
        EXPECT_LT(tags.candidate(s, b), (b + 1) * 64u);
    }
    // Bank 0 indexes straight; a set-associative array is set-major.
    EXPECT_EQ(tags.candidate(s, 0), 0xabcdefu & 63);
    FrameArray sa(64, 4, false);
    EXPECT_EQ(sa.candidate(sa.slots(0xabcdef), 2), (0xabcdefu & 63) * 4 + 2);
}

/** One array shape under test: sets (per bank when skewed) x ways. */
struct Shape
{
    uint64_t sets;
    unsigned ways;
    bool skewed;
};

/*
 * A 4-way and a 16-way set, and 4 skewed banks of one frame each, so
 * that every line of the test shares the same candidate frames.
 */
constexpr Shape kOneSetShapes[] = {{8, 4, false}, {8, 16, false}, {1, 4, true}};

/** The i-th test line of set 3 (any line in the one-frame banks). */
uint64_t
setLine(const Shape &shape, uint64_t i)
{
    return 3 + i * shape.sets;
}

/*
 * Allocate's one-pass victim choice relies on a free frame carrying
 * stamp 0: filling a set must take its free frames in way order with
 * no eviction, then evict the least-recently used line.
 */
TEST(FrameVictims, FillTakesFreeFramesInWayOrder)
{
    for (const Shape &shape : kOneSetShapes) {
        SCOPED_TRACE(testing::Message()
                     << shape.ways << "-way skewed=" << shape.skewed);
        FrameArray tags(shape.sets, shape.ways, shape.skewed);
        const FrameArray::Slots s = tags.slots(setLine(shape, 0));
        for (unsigned w = 0; w < shape.ways; ++w) {
            FrameArray::Eviction ev;
            const uint64_t line = setLine(shape, w);
            EXPECT_EQ(tags.allocate(line, tags.slots(line), ev),
                      tags.candidate(s, w));
            EXPECT_FALSE(ev.valid);
        }
        // Touch line 0: line 1 is now the least recently used.
        tags.touch(tags.find(setLine(shape, 0)));
        const FrameArray::Eviction ev =
            insert(tags, setLine(shape, shape.ways));
        EXPECT_TRUE(ev.valid);
        EXPECT_EQ(ev.line, setLine(shape, 1));
    }
}

/*
 * A freed frame must be the next victim of its set even when its
 * stale stamp is not the set's least: invalidation resets the stamp.
 */
TEST(FrameVictims, InvalidatedFrameIsTakenNext)
{
    for (const Shape &shape : kOneSetShapes) {
        SCOPED_TRACE(testing::Message()
                     << shape.ways << "-way skewed=" << shape.skewed);
        FrameArray tags(shape.sets, shape.ways, shape.skewed);
        for (unsigned w = 0; w < shape.ways; ++w)
            insert(tags, setLine(shape, w));
        // Line 2 was installed after lines 0 and 1, so its stamp is
        // not the least.
        const uint32_t freed = tags.find(setLine(shape, 2));
        ASSERT_TRUE(tags.invalidate(setLine(shape, 2)));
        FrameArray::Eviction ev;
        const uint64_t line = setLine(shape, shape.ways);
        EXPECT_EQ(tags.allocate(line, tags.slots(line), ev), freed);
        EXPECT_FALSE(ev.valid);
    }
}

/**
 * The victim rule the one-pass select replaced, on its own tag and
 * stamp columns: the first free frame in way order, else the least
 * stamp (strict <, way order). Invalidation leaves the stamp stale,
 * as it did; the probe exits early, as the skewed probe did.
 */
class TwoPassFrames
{
  public:
    TwoPassFrames(const FrameArray &shape, unsigned ways)
        : shape_(shape),
          ways_(ways),
          tag_(shape.frames(), FrameArray::kInvalidTag),
          stamp_(shape.frames(), 0)
    {
    }

    uint32_t
    find(uint64_t line) const
    {
        const FrameArray::Slots s = shape_.slots(line);
        for (unsigned w = 0; w < ways_; ++w) {
            if (tag_[shape_.candidate(s, w)] == line)
                return shape_.candidate(s, w);
        }
        return kNoFrame;
    }

    void touch(uint32_t f) { stamp_[f] = ++clock_; }

    uint32_t
    allocate(uint64_t line, uint64_t &evicted)
    {
        const FrameArray::Slots s = shape_.slots(line);
        uint32_t victim = kNoFrame;
        for (unsigned w = 0; w < ways_ && victim == kNoFrame; ++w) {
            if (tag_[shape_.candidate(s, w)] == FrameArray::kInvalidTag)
                victim = shape_.candidate(s, w);
        }
        if (victim == kNoFrame) {
            victim = shape_.candidate(s, 0);
            for (unsigned w = 1; w < ways_; ++w) {
                const uint32_t f = shape_.candidate(s, w);
                if (stamp_[f] < stamp_[victim])
                    victim = f;
            }
        }
        evicted = tag_[victim];
        tag_[victim] = line;
        stamp_[victim] = ++clock_;
        return victim;
    }

    void invalidate(uint32_t f) { tag_[f] = FrameArray::kInvalidTag; }

  private:
    const FrameArray &shape_;
    unsigned ways_;
    uint64_t clock_ = 0;
    std::vector<uint64_t> tag_;
    std::vector<uint64_t> stamp_;
};

/*
 * Seeded alloc/touch/invalidate streams over 3x capacity: the frame
 * array and the two-pass rule must agree on every probe, frame and
 * victim.
 */
TEST(FrameVictims, OnePassMatchesTwoPassRule)
{
    constexpr Shape kShapes[] = {
        {16, 4, false}, {4, 16, false}, {64, 4, true}, {8, 16, true}};
    for (const Shape &shape : kShapes) {
        SCOPED_TRACE(testing::Message()
                     << shape.sets << "x" << shape.ways
                     << " skewed=" << shape.skewed);
        FrameArray tags(shape.sets, shape.ways, shape.skewed);
        TwoPassFrames ref(tags, shape.ways);
        Rng rng(0xd1ff ^ shape.sets ^ shape.ways);
        const uint64_t span = 3 * tags.frames();
        for (int op = 0; op < 20'000; ++op) {
            const uint64_t line = 0x100000 + rng.below(span);
            const uint32_t f = tags.find(line);
            ASSERT_EQ(f, ref.find(line)) << "op " << op;
            if (rng.below(4) == 0) {
                if (f != kNoFrame) {
                    tags.invalidateFrame(f);
                    ref.invalidate(f);
                }
            } else if (f != kNoFrame) {
                tags.touch(f);
                ref.touch(f);
            } else {
                FrameArray::Eviction ev;
                uint64_t evicted = 0;
                ASSERT_EQ(tags.allocate(line, tags.slots(line), ev),
                          ref.allocate(line, evicted))
                    << "op " << op;
                EXPECT_EQ(ev.line, evicted);
            }
        }
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
tagDigest(const TagGeometry &g, bool skewed, uint64_t seed)
{
    FrameArray tags(g.sets, g.ways, skewed);
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

/** tagDigest() folded over the stimulus `seeds`. */
uint64_t
tagDigest(const TagGeometry &g, bool skewed,
          std::initializer_list<uint64_t> seeds)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (uint64_t seed : seeds)
        hash = fnvMix(hash, tagDigest(g, skewed, seed));
    return hash;
}

/** One recorded digest: organization and the expected hash. */
struct TagGoldenCase
{
    bool skewed;
    uint64_t digest;
};

/*
 * Recorded from the virtual tag store with 48-byte frames that the
 * SoA frame array replaced; the frame array reproduces every one.
 *
 * The same streams also gave these digests under the paper's 2-bit
 * age-based replacement, which LRU now stands in for. A frame's age
 * only grows with the time since its last touch, so the oldest age
 * always contains the oldest LRU stamp, and age broke ties by that
 * stamp. Stamps are unique (the clock advances on every touch and
 * allocate), so the two evict the same frame every time.
 */
constexpr TagGoldenCase kL1Golden[] = {
    {false, 0x16a9697b25ac86e3ull},
    {true, 0x3286ccc3288963a6ull},
};
constexpr TagGoldenCase kL2Golden[] = {
    {false, 0x35293d11ecde2adfull},
    {true, 0xd5300862a5c25985ull},
};
constexpr TagGoldenCase kL3Golden[] = {
    {false, 0x0b803b7882879c3cull},
    {true, 0x9db1121fe51cacc9ull},
};
constexpr TagGoldenCase kOneSetGolden[] = {
    {false, 0x78b75b7b41d59396ull},
    {true, 0x78b75b7b41d59396ull},
};

template <size_t N>
void
expectTagGolden(const TagGeometry &g, const TagGoldenCase (&cases)[N],
                std::initializer_list<uint64_t> seeds)
{
    for (const TagGoldenCase &c : cases) {
        EXPECT_EQ(tagDigest(g, c.skewed, seeds), c.digest)
            << (c.skewed ? "skewed" : "set-assoc");
    }
}

TEST(TagStoreGolden, L1GeometryReproducesRecordedDigests)
{
    expectTagGolden(kL1, kL1Golden, {1});
}

TEST(TagStoreGolden, L2GeometryReproducesRecordedDigests)
{
    expectTagGolden(kL2, kL2Golden, {11, 12, 13, 14});
}

TEST(TagStoreGolden, L3GeometryReproducesRecordedDigests)
{
    expectTagGolden(kL3, kL3Golden, {1});
}

TEST(TagStoreGolden, SingleSetReproducesRecordedDigests)
{
    expectTagGolden(kOneSet, kOneSetGolden, {1});
}

} // namespace
} // namespace xmig
