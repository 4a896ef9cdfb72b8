/**
 * @file
 * xmig-scope wall-clock profiling (obs/prof.hpp): nested scopes
 * accumulate total and self time into the ProfileRegistry.
 */

#include <gtest/gtest.h>

#include "obs/prof.hpp"

namespace xmig::obs {
namespace {

TEST(Prof, ScopesAccumulateSelfAndTotal)
{
    ProfileRegistry::instance().reset();
    {
        XMIG_PROF_SCOPE("outer");
        {
            XMIG_PROF_SCOPE("inner");
        }
        {
            XMIG_PROF_SCOPE("inner");
        }
    }
    const ProfEntry *outer = ProfileRegistry::instance().find("outer");
    const ProfEntry *inner = ProfileRegistry::instance().find("inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->calls, 1u);
    EXPECT_EQ(inner->calls, 2u);
    // The inner scopes' time is the outer scope's child time.
    EXPECT_GE(outer->totalNs, outer->childNs);
    EXPECT_GE(outer->childNs, inner->totalNs);
    EXPECT_EQ(outer->selfNs(), outer->totalNs - outer->childNs);

    const std::string report = ProfileRegistry::instance().report();
    EXPECT_NE(report.find("outer"), std::string::npos);
    EXPECT_NE(report.find("inner"), std::string::npos);
    ProfileRegistry::instance().reset();
    EXPECT_TRUE(ProfileRegistry::instance().entries().empty());
}

} // namespace
} // namespace xmig::obs
