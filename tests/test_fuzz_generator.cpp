/**
 * @file
 * xmig-forge PlanGenerator: validity, determinism, and coverage of
 * the sampled plan space.
 */

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "fault/fault_plan.hpp"
#include "fuzz/plan_generator.hpp"

using namespace xmig;

namespace {

FaultPlan
mustParse(const std::string &spec)
{
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(FaultPlan::parse(spec, &plan, &error))
        << spec << ": " << error;
    return plan;
}

} // namespace

TEST(PlanGenerator, EveryPlanParses)
{
    PlanGenerator gen(1234);
    for (int i = 0; i < 500; ++i) {
        const FuzzPlan plan = gen.next();
        ASSERT_FALSE(plan.statements.empty());
        mustParse(plan.spec());
    }
}

TEST(PlanGenerator, SameSeedSamePlans)
{
    PlanGenerator a(77);
    PlanGenerator b(77);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next().spec(), b.next().spec());
}

TEST(PlanGenerator, DifferentSeedsDiverge)
{
    PlanGenerator a(1);
    PlanGenerator b(2);
    int differing = 0;
    for (int i = 0; i < 20; ++i)
        differing += a.next().spec() != b.next().spec() ? 1 : 0;
    EXPECT_GT(differing, 15);
}

TEST(PlanGenerator, CoversEverySiteAndBothTriggers)
{
    PlanGenerator gen(9);
    std::set<FaultSite> sites;
    bool scheduled = false, rated = false;
    for (int i = 0; i < 400; ++i) {
        const FaultPlan plan = mustParse(gen.next().spec());
        for (const FaultRule &r : plan.scheduled) {
            sites.insert(r.site);
            scheduled = true;
        }
        for (const FaultRule &r : plan.rates) {
            sites.insert(r.site);
            rated = true;
        }
    }
    EXPECT_EQ(sites.size(), static_cast<size_t>(FaultSite::kCount))
        << "a 400-plan batch must hit all ten sites";
    EXPECT_TRUE(scheduled);
    EXPECT_TRUE(rated);
}

TEST(PlanGenerator, ExploresBoundaryShapes)
{
    PlanGenerator gen(42);
    bool tick_zero = false;       // an event scheduled at tick 0
    bool rate_one = false;        // a certain-fire rate
    bool rate_zero = false;       // an armed-but-silent rate
    bool duplicate = false;       // a statement repeated verbatim
    bool back_to_back = false;    // churn pair <= 1 tick apart
    bool bogus_core = false;      // a core id the machine must ignore
    for (int i = 0; i < 600; ++i) {
        const FuzzPlan fuzz = gen.next();
        std::set<std::string> seen;
        for (const std::string &s : fuzz.statements) {
            if (!seen.insert(s).second)
                duplicate = true;
        }
        const FaultPlan plan = mustParse(fuzz.spec());
        uint64_t off_tick = 0;
        bool have_off = false;
        for (const FaultRule &r : plan.scheduled) {
            tick_zero = tick_zero || r.at == 0;
            if (r.site == FaultSite::CoreOff) {
                off_tick = r.at;
                have_off = true;
                bogus_core = bogus_core || r.core >= 4;
            }
            if (r.site == FaultSite::CoreOn && have_off &&
                r.at - off_tick <= 1)
                back_to_back = true;
        }
        for (const FaultRule &r : plan.rates) {
            rate_one = rate_one || r.rate == 1.0;
            rate_zero = rate_zero || r.rate == 0.0;
        }
    }
    EXPECT_TRUE(tick_zero);
    EXPECT_TRUE(rate_one);
    EXPECT_TRUE(rate_zero);
    EXPECT_TRUE(duplicate);
    EXPECT_TRUE(back_to_back);
    EXPECT_TRUE(bogus_core);
}

TEST(PlanGenerator, CapsCoreChurnRates)
{
    PlanGenerator gen(5);
    for (int i = 0; i < 400; ++i) {
        const FaultPlan plan = mustParse(gen.next().spec());
        for (const FaultRule &r : plan.rates) {
            if (r.site == FaultSite::CoreOff ||
                r.site == FaultSite::CoreOn) {
                EXPECT_LE(r.rate, PlanGenerator::kMaxChurnRate);
            }
        }
    }
}

TEST(PlanGenerator, RespectsStatementBudget)
{
    PlanGenerator gen(3);
    size_t longest = 0;
    for (int i = 0; i < 200; ++i) {
        // seed= statement + budget, with one-statement slop for a
        // churn pair straddling the budget edge.
        const size_t n = gen.next().statements.size();
        EXPECT_LE(n, size_t{PlanGenerator::kMaxStatements} + 2);
        longest = std::max(longest, n);
    }
    // 200 draws of a budget in [1, kMaxStatements] reach its top.
    EXPECT_GT(longest, size_t{PlanGenerator::kMaxStatements});
}

TEST(PlanGenerator, GeneratedPlansRoundTripThroughToString)
{
    PlanGenerator gen(11);
    for (int i = 0; i < 200; ++i) {
        const FaultPlan plan = mustParse(gen.next().spec());
        const FaultPlan again = mustParse(plan.toString());
        EXPECT_EQ(plan, again) << plan.toString();
    }
}
