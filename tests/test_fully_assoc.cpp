/**
 * @file
 * Unit and property tests for the O(1) fully-associative LRU cache.
 */

#include <gtest/gtest.h>

#include <list>
#include <tuple>

#include "cache/fully_assoc.hpp"
#include "util/rng.hpp"

namespace xmig {
namespace {

TEST(FullyAssocLru, HitAfterFill)
{
    FullyAssocLru cache(4);
    EXPECT_FALSE(cache.access(1));
    EXPECT_TRUE(cache.access(1));
    EXPECT_EQ(cache.size(), 1u);
}

TEST(FullyAssocLru, EvictsLruOrder)
{
    FullyAssocLru cache(3);
    cache.access(1);
    cache.access(2);
    cache.access(3);
    cache.access(1); // 2 now LRU
    EXPECT_FALSE(cache.access(4));
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_TRUE(cache.contains(4));
    EXPECT_EQ(cache.size(), 3u);
}

TEST(FullyAssocLru, ContainsDoesNotTouch)
{
    FullyAssocLru cache(2);
    cache.access(1);
    cache.access(2);
    // contains(1) must NOT refresh line 1...
    EXPECT_TRUE(cache.contains(1));
    cache.access(3);
    // ...so 1 was still the LRU victim.
    EXPECT_FALSE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
}

/** Cross-check against a naive reference LRU over random streams. */
class FullyAssocLruPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint64_t>>
{
};

TEST_P(FullyAssocLruPropertyTest, MatchesReferenceModel)
{
    const auto [capacity, universe] = GetParam();
    FullyAssocLru cache(capacity);
    std::list<uint64_t> reference; // front = MRU
    Rng rng(capacity * 1000 + universe);

    for (int i = 0; i < 20000; ++i) {
        const uint64_t line = rng.below(universe);
        // Reference model.
        bool ref_hit = false;
        for (auto it = reference.begin(); it != reference.end(); ++it) {
            if (*it == line) {
                reference.erase(it);
                ref_hit = true;
                break;
            }
        }
        reference.push_front(line);
        if (reference.size() > capacity)
            reference.pop_back();

        ASSERT_EQ(cache.access(line), ref_hit) << "step " << i;
        ASSERT_EQ(cache.size(), reference.size());
        ASSERT_TRUE(cache.contains(reference.back()));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FullyAssocLruPropertyTest,
    ::testing::Values(std::make_tuple(1, 4), std::make_tuple(4, 16),
                      std::make_tuple(16, 24), std::make_tuple(64, 256),
                      std::make_tuple(256, 300)));

} // namespace
} // namespace xmig
