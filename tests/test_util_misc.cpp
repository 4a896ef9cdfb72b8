/**
 * @file
 * Unit tests for the RNG and the stats/report formatting helpers.
 */

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace xmig {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (uint64_t bound : {1ULL, 2ULL, 3ULL, 31ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, InRangeInclusive)
{
    Rng rng(7);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t v = rng.inRange(10, 13);
        ASSERT_GE(v, 10u);
        ASSERT_LE(v, 13u);
        hit_lo |= v == 10;
        hit_hi |= v == 13;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ReseedReproduces)
{
    Rng rng(5);
    const uint64_t first = rng.next();
    rng.next();
    rng.reseed(5);
    EXPECT_EQ(rng.next(), first);
}

TEST(PerEvent, FormatsLikeTable2)
{
    EXPECT_EQ(perEvent(1000, 0), "inf");
    EXPECT_EQ(perEvent(640, 10), "64");
    EXPECT_EQ(perEvent(1000000000, 455), "2.2e6");
    EXPECT_EQ(perEvent(1000000000, 71), "1.4e7");
}

TEST(PerEvent, ZeroOverZeroIsZeroNotInf)
{
    // An empty run never retired an instruction either; reporting
    // "inf" would read as "event never occurs", which is unknowable.
    EXPECT_EQ(perEvent(0, 0), "0");
    EXPECT_EQ(perEvent(1, 0), "inf");
    EXPECT_EQ(perEvent(0, 5), "0");
}

TEST(PerEvent, AbbreviationBoundaryRounds)
{
    // Below the threshold: plain integers, rounded.
    EXPECT_EQ(perEvent(99999, 1), "99999");
    EXPECT_EQ(perEvent(199998, 2), "99999");
    // At and above: abbreviated power-of-ten form. 99999.5 rounds to
    // 100000, so it must abbreviate (and the mantissa carry makes it
    // 1.0e5, never the six-digit "100000" or "10.0e4").
    EXPECT_EQ(perEvent(199999, 2), "1.0e5");
    EXPECT_EQ(perEvent(100000, 1), "1.0e5");

    // Mantissa 9.96 must carry into the exponent, not print 10.0e5.
    EXPECT_EQ(perEvent(996000, 1), "1.0e6");
    EXPECT_EQ(perEvent(9960000, 1), "1.0e7");
    EXPECT_EQ(perEvent(994000, 1), "9.9e5");
}

TEST(Frequency, FourDecimals)
{
    EXPECT_EQ(frequency(134, 10000), "0.0134");
    EXPECT_EQ(frequency(0, 10000), "0.0000");
    EXPECT_EQ(frequency(0, 0), "0.0000");
}

TEST(SizeLabel, PaperAxisLabels)
{
    EXPECT_EQ(sizeLabel(16 * 1024), "16k");
    EXPECT_EQ(sizeLabel(64 * 1024), "64k");
    EXPECT_EQ(sizeLabel(1024 * 1024), "1M");
    EXPECT_EQ(sizeLabel(16 * 1024 * 1024), "16M");
    EXPECT_EQ(sizeLabel(100), "100");
}

TEST(Ratio2, TwoDecimals)
{
    EXPECT_EQ(ratio2(0.03), "0.03");
    EXPECT_EQ(ratio2(1.6), "1.60");
}

TEST(AsciiTable, AlignsAndSections)
{
    AsciiTable t({"name", "value"});
    t.addSection("SPEC2000");
    t.addRow({"gzip", "64"});
    t.addRow({"longername", "123456"});
    const std::string out = t.render("title");
    EXPECT_NE(out.find("title"), std::string::npos);
    EXPECT_NE(out.find("-- SPEC2000"), std::string::npos);
    EXPECT_NE(out.find("longername"), std::string::npos);
    // Right-aligned numeric column: "64" ends where "123456" ends.
    EXPECT_NE(out.find("    64"), std::string::npos);
}

TEST(SeriesWriter, CsvShape)
{
    SeriesWriter s("x", {"a", "b"});
    s.addPoint("16k", {0.5, 0.25});
    const std::string out = s.render();
    EXPECT_NE(out.find("x,a,b"), std::string::npos);
    EXPECT_NE(out.find("16k,0.5,0.25"), std::string::npos);
}

TEST(SeriesWriter, RenderCsvOmitsTitleRule)
{
    SeriesWriter s("size", {"ratio"});
    s.addPoint("64k", {1.5});
    // render() may carry a '# title' comment; untitled, it never does.
    const std::string titled = s.render("figure 4");
    EXPECT_EQ(titled.find("# figure 4"), 0u);
    const std::string csv = s.render();
    EXPECT_EQ(csv.find('#'), std::string::npos);
    EXPECT_EQ(csv, "size,ratio\n64k,1.5\n");
}

TEST(SeriesWriter, QuotesAwkwardCells)
{
    SeriesWriter s("benchmark, suite", {"miss \"ratio\""});
    s.addPoint("179.art, SPEC", {0.03});
    const std::string csv = s.render();
    EXPECT_NE(csv.find("\"benchmark, suite\",\"miss \"\"ratio\"\"\""),
              std::string::npos);
    EXPECT_NE(csv.find("\"179.art, SPEC\",0.03"), std::string::npos);
}

TEST(CsvQuote, Rfc4180Rules)
{
    EXPECT_EQ(csvQuote("plain"), "plain");
    EXPECT_EQ(csvQuote("1.25e6"), "1.25e6");
    EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvQuote("two words"), "\"two words\"");
    EXPECT_EQ(csvQuote("line\nbreak"), "\"line\nbreak\"");
    EXPECT_EQ(csvQuote(""), "");
}

} // namespace
} // namespace xmig
