/**
 * @file
 * Unit and differential tests for the Mattson LRU-stack profiler: at
 * every capacity it was built with, the stack's miss count equals that
 * of an independent brute-force LRU cache of that size.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <string>
#include <unordered_set>
#include <vector>

#include "cache/lru_stack.hpp"
#include "util/rng.hpp"

namespace xmig {
namespace {

/** The stack's missesAtSize() at each of `capacities`. */
std::vector<uint64_t>
missesAt(const LruStack &stack, const std::vector<uint64_t> &capacities)
{
    std::vector<uint64_t> misses;
    for (uint64_t c : capacities)
        misses.push_back(stack.missesAtSize(c));
    return misses;
}

TEST(LruStack, FirstTouchIsInfinite)
{
    LruStack stack({1, 4});
    stack.access(1);
    stack.access(2);
    EXPECT_EQ(missesAt(stack, {1, 4}), (std::vector<uint64_t>{2, 2}));
    EXPECT_EQ(stack.distinctLines(), 2u);
}

TEST(LruStack, ImmediateRepeatIsDepthOne)
{
    LruStack stack({1});
    stack.access(1);
    stack.access(1);
    EXPECT_EQ(stack.missesAtSize(1), 1u);
}

TEST(LruStack, HandComputedDepths)
{
    const std::vector<uint64_t> caps = {1, 2, 3};
    LruStack stack(caps);
    stack.access(1); // inf
    stack.access(2); // inf
    stack.access(3); // inf
    EXPECT_EQ(missesAt(stack, caps), (std::vector<uint64_t>{3, 3, 3}));
    stack.access(1); // depth 3: 2 and 3 are above it
    EXPECT_EQ(missesAt(stack, caps), (std::vector<uint64_t>{4, 4, 3}));
    stack.access(3); // depth 2: 1 is above it
    EXPECT_EQ(missesAt(stack, caps), (std::vector<uint64_t>{5, 4, 3}));
    stack.access(3); // depth 1
    EXPECT_EQ(missesAt(stack, caps), (std::vector<uint64_t>{5, 4, 3}));
    stack.access(2); // depth 3
    EXPECT_EQ(missesAt(stack, caps), (std::vector<uint64_t>{6, 5, 3}));
}

TEST(LruStack, HistogramAccumulates)
{
    // Depths inf, 1, 1, inf, 2: two hits at one line, three at two.
    LruStack stack({1, 2});
    for (uint64_t line : {1, 1, 1, 2, 1})
        stack.access(line);
    EXPECT_EQ(stack.missesAtSize(1), 3u);
    EXPECT_EQ(stack.missesAtSize(2), 2u);
    EXPECT_EQ(stack.references(), 5u);
}

TEST(LruStack, MissesAtSizeInclusionProperty)
{
    // Stack inclusion: misses are non-increasing in cache size.
    std::vector<uint64_t> caps;
    for (uint64_t size = 1; size <= 1024; size *= 2)
        caps.push_back(size);
    caps.insert(caps.end(), {2000, 2048, 4096});
    LruStack stack(caps);
    Rng rng(11);
    for (int i = 0; i < 50000; ++i)
        stack.access(rng.below(2000));
    uint64_t prev = stack.missesAtSize(1);
    for (uint64_t size : caps) {
        const uint64_t misses = stack.missesAtSize(size);
        EXPECT_LE(misses, prev);
        prev = misses;
    }
    // At and beyond the footprint only first touches miss.
    EXPECT_EQ(stack.distinctLines(), 2000u);
    for (uint64_t size : {2000, 2048, 4096})
        EXPECT_EQ(stack.missesAtSize(size), stack.distinctLines());
}

/** A brute-force LRU cache of `capacity` lines: front = MRU. */
class ListLru
{
  public:
    explicit ListLru(uint64_t capacity) : capacity_(capacity) {}

    void
    access(uint64_t line)
    {
        const auto it = std::find(lines_.begin(), lines_.end(), line);
        if (it != lines_.end()) {
            lines_.erase(it);
        } else {
            ++misses_;
            if (lines_.size() == capacity_)
                lines_.pop_back();
        }
        lines_.push_front(line);
    }

    uint64_t misses() const { return misses_; }

  private:
    uint64_t capacity_;
    std::list<uint64_t> lines_;
    uint64_t misses_ = 0;
};

/**
 * `n` references over `universe` lines: a quarter repeat the previous
 * line, a quarter continue a sequential sweep, the rest are uniform.
 */
std::vector<uint64_t>
mixedStream(size_t n, uint64_t universe, uint64_t seed)
{
    std::vector<uint64_t> s;
    Rng rng(seed);
    uint64_t sweep = 0;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t pick = rng.below(4);
        if (pick == 0 && !s.empty()) {
            s.push_back(s.back());
        } else if (pick == 1) {
            sweep = sweep + 1 == universe ? 0 : sweep + 1;
            s.push_back(sweep);
        } else {
            s.push_back(rng.below(universe));
        }
    }
    return s;
}

/**
 * Feed `stream` to one stack built with `capacities` and to a ListLru
 * of each capacity. After every prefix, missesAtSize() must equal each
 * model's miss count and distinctLines() the lines seen so far.
 */
void
expectMatchesListModels(const std::vector<uint64_t> &capacities,
                        const std::vector<uint64_t> &stream)
{
    LruStack stack(capacities);
    std::vector<ListLru> models(capacities.begin(), capacities.end());
    std::unordered_set<uint64_t> seen;
    for (size_t i = 0; i < stream.size(); ++i) {
        stack.access(stream[i]);
        seen.insert(stream[i]);
        ASSERT_EQ(stack.references(), i + 1);
        ASSERT_EQ(stack.distinctLines(), seen.size()) << "prefix " << i + 1;
        for (size_t k = 0; k < capacities.size(); ++k) {
            models[k].access(stream[i]);
            ASSERT_EQ(stack.missesAtSize(capacities[k]), models[k].misses())
                << "capacity " << capacities[k] << ", prefix " << i + 1;
        }
    }
}

TEST(LruStack, AdjacentCapacitiesMatchListModels)
{
    // Capacities 1 and 2, and neighbours c and c + 1: markers one slot
    // apart step onto each other's lines.
    expectMatchesListModels({1, 2, 3, 7, 8, 31, 32, 33},
                            mixedStream(20000, 48, 3));
}

TEST(LruStack, ShortStreamLeavesMarkersUnplaced)
{
    // 300 lines never fill the two largest capacities, whose markers
    // are never placed; there only first touches miss.
    const std::vector<uint64_t> stream = mixedStream(3000, 300, 4);
    expectMatchesListModels({2, 16, 100, 1000, 5000}, stream);
    LruStack stack({1000, 5000});
    for (uint64_t line : stream)
        stack.access(line);
    EXPECT_EQ(stack.missesAtSize(1000), stack.distinctLines());
    EXPECT_EQ(stack.missesAtSize(5000), stack.distinctLines());
}

TEST(LruStack, LongStreamMatchesListModels)
{
    expectMatchesListModels({1, 2, 50, 100, 101},
                            mixedStream(300'000, 500, 5));
    // 50 hot lines, each re-referenced at depth 150 among 47 k lines
    // touched once: the line table doubles several times.
    std::vector<uint64_t> wide;
    for (uint64_t i = 0; i < 70'000; ++i)
        wide.push_back(i % 3 == 0 ? i / 3 % 50 : 1'000'000 + i);
    expectMatchesListModels({1, 149, 150, 151}, wide);
}

/**
 * The defining Mattson property: missesAtSize(s) equals the miss
 * count of an independently simulated fully-associative LRU cache of
 * s lines.
 */
class LruStackVsCacheTest
    : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(LruStackVsCacheTest, SinglePassMatchesCacheSimulation)
{
    const uint64_t size = GetParam();
    Rng rng(77);
    // Mixed pattern: random + sequential sweeps.
    std::vector<uint64_t> stream;
    for (int round = 0; round < 30; ++round) {
        for (int i = 0; i < 700; ++i) {
            stream.push_back(rng.chance(0.5) ? rng.below(600)
                                             : static_cast<uint64_t>(i));
        }
    }
    expectMatchesListModels({size}, stream);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LruStackVsCacheTest,
                         ::testing::Values(1u, 2u, 7u, 32u, 100u, 256u,
                                           555u, 1024u));

} // namespace
} // namespace xmig
