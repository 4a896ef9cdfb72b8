/**
 * @file
 * xmig-scope metrics registry (obs/registry.hpp) and the JSON helpers
 * behind its exporters (obs/json.hpp).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "util/artifact.hpp"

namespace xmig::obs {
namespace {

TEST(JsonEscape, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonNumber, IntegralPrintsWithoutFraction)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(123456.0), "123456");
    EXPECT_EQ(jsonNumber(-42.0), "-42");
}

TEST(JsonNumber, NonFiniteDegradesToNull)
{
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::infinity()),
              "null");
}

TEST(JsonNumber, FractionalRoundTrips)
{
    const std::string s = jsonNumber(0.1);
    EXPECT_DOUBLE_EQ(std::stod(s), 0.1);
}

TEST(JsonValidator, AcceptsWellFormedDocuments)
{
    EXPECT_TRUE(jsonParseOk("{}"));
    EXPECT_TRUE(jsonParseOk("[]"));
    EXPECT_TRUE(jsonParseOk("{\"a\":[1,2.5,-3e4,null,true,\"x\"]}"));
    EXPECT_TRUE(jsonParseOk("  {\"nested\":{\"deep\":[{}]}}  "));
}

TEST(JsonValidator, RejectsMalformedDocuments)
{
    EXPECT_FALSE(jsonParseOk(""));
    EXPECT_FALSE(jsonParseOk("{"));
    EXPECT_FALSE(jsonParseOk("{\"a\":}"));
    EXPECT_FALSE(jsonParseOk("[1,]"));
    EXPECT_FALSE(jsonParseOk("{\"a\":1}{\"b\":2}")); // trailing junk
    EXPECT_FALSE(jsonParseOk("{\"unterminated"));
    EXPECT_FALSE(jsonParseOk("{'a':1}"));
    // Where the validator and xmig_report's DOM parser once disagreed,
    // the one parser keeps the stricter verdict.
    EXPECT_FALSE(jsonParseOk("[1.2.3]"));
    EXPECT_FALSE(jsonParseOk("[1e]"));
    EXPECT_FALSE(jsonParseOk("[-]"));
    EXPECT_FALSE(jsonParseOk("[1-2]"));
    EXPECT_FALSE(jsonParseOk("[01e+]"));
    EXPECT_FALSE(jsonParseOk("[1.]"));
    EXPECT_FALSE(jsonParseOk("\"raw\ttab\""));
    EXPECT_FALSE(jsonParseOk("\"raw\nnewline\""));
    EXPECT_FALSE(jsonParseOk(std::string(65, '[') + std::string(65, ']')));
    EXPECT_TRUE(jsonParseOk(std::string(64, '[') + std::string(64, ']')));
}

TEST(JsonValue, ParsesIntoADom)
{
    JValue v;
    ASSERT_TRUE(parseJson(
        "{\"n\":-2.5e1,\"s\":\"a\\u0041\\n\",\"l\":[true,null]}", &v));
    EXPECT_EQ(v.kind, JValue::Kind::Object);
    EXPECT_EQ(v.numberAt("n"), -25.0);
    EXPECT_EQ(v.stringAt("s"), "aA\n");
    ASSERT_NE(v.get("l"), nullptr);
    ASSERT_EQ(v.get("l")->array.size(), 2u);
    EXPECT_TRUE(v.get("l")->array[0].boolean);
    EXPECT_EQ(v.get("l")->array[1].kind, JValue::Kind::Null);
    EXPECT_EQ(v.get("missing"), nullptr);
    EXPECT_EQ(v.numberAt("s", 7.0), 7.0);
}

TEST(Registry, RegistersAndReadsEveryKind)
{
    MetricsRegistry r;
    Histogram h;
    h.record(0);
    h.record(5);

    EXPECT_TRUE(r.addCounter("m.counter", 7));
    EXPECT_TRUE(r.addGauge("m.gauge", 1.5));
    EXPECT_TRUE(r.addHistogram("m.hist", h));
    EXPECT_EQ(r.size(), 3u);

    EXPECT_EQ(r.kindOf("m.counter"), MetricKind::Counter);
    EXPECT_EQ(r.kindOf("m.gauge"), MetricKind::Gauge);
    EXPECT_EQ(r.kindOf("m.hist"), MetricKind::Histogram);
    EXPECT_EQ(r.kindOf("m.missing"), std::nullopt);

    EXPECT_EQ(r.value("m.counter"), 7.0);
    EXPECT_EQ(r.value("m.gauge"), 1.5);
    EXPECT_EQ(r.value("m.hist"), 2.0); // sample count
    EXPECT_EQ(r.value("m.missing"), std::nullopt);
}

TEST(Registry, HistogramIsCopiedAtRegistration)
{
    // The registry is a snapshot: samples recorded after registration
    // do not reach it, and it outlives the registered histogram.
    MetricsRegistry r;
    std::string before;
    {
        Histogram h;
        h.record(4);
        ASSERT_TRUE(r.addHistogram("m.hist", h));
        before = r.renderJsonl();
        h.record(4096);
        h.reset();
    }
    EXPECT_EQ(r.value("m.hist"), 1.0);
    EXPECT_EQ(r.renderJsonl(), before);
    EXPECT_NE(before.find("\"p50\":4"), std::string::npos) << before;
}

TEST(Registry, CounterValueIsExactAndCounterOnly)
{
    MetricsRegistry r;
    // A value a double cannot hold exactly: 2^53 + 1.
    EXPECT_TRUE(r.addCounter("m.big", (uint64_t{1} << 53) + 1));
    EXPECT_TRUE(r.addCounter("m.small", 3));
    EXPECT_TRUE(r.addGauge("m.gauge", 1.0));
    EXPECT_TRUE(r.addHistogram("m.hist", Histogram{}));

    EXPECT_EQ(r.counterValue("m.big"), (uint64_t{1} << 53) + 1);
    EXPECT_EQ(r.counterValue("m.small"), 3u);

    // Non-counters and unknown paths read back as nullopt, never 0.
    EXPECT_EQ(r.counterValue("m.gauge"), std::nullopt);
    EXPECT_EQ(r.counterValue("m.hist"), std::nullopt);
    EXPECT_EQ(r.counterValue("m.missing"), std::nullopt);
}

TEST(Registry, CounterSnapshotIsNameSortedCountersOnly)
{
    MetricsRegistry r;
    EXPECT_TRUE(r.addCounter("zulu", 26));
    EXPECT_TRUE(r.addGauge("golf", 7.0));
    EXPECT_TRUE(r.addCounter("alpha", 1));
    EXPECT_TRUE(r.addHistogram("hotel", Histogram{}));
    EXPECT_TRUE(r.addCounter("mike", 13));

    const auto snap = r.counterSnapshot();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0], (MetricsRegistry::CounterSample{"alpha", 1}));
    EXPECT_EQ(snap[1], (MetricsRegistry::CounterSample{"mike", 13}));
    EXPECT_EQ(snap[2], (MetricsRegistry::CounterSample{"zulu", 26}));
}

TEST(Registry, DuplicatePathsAreRefusedNotAliased)
{
    MetricsRegistry r;
    EXPECT_TRUE(r.addCounter("dup", 1));
    EXPECT_FALSE(r.addCounter("dup", 2));
    EXPECT_FALSE(r.addGauge("dup", 3.0));
    EXPECT_EQ(r.size(), 1u);
    EXPECT_EQ(r.value("dup"), 1.0); // first registration wins
}

TEST(Registry, JsonlIsSortedAndEveryLineParses)
{
    MetricsRegistry r;
    Histogram h;
    h.record(3);
    r.addGauge("z.last", 0.5);
    r.addCounter("a.first", 12);
    r.addHistogram("m.mid", h);

    const std::string jsonl = r.renderJsonl();
    std::istringstream lines(jsonl);
    std::string line;
    std::vector<std::string> seen;
    while (std::getline(lines, line)) {
        EXPECT_TRUE(jsonParseOk(line)) << line;
        seen.push_back(line);
    }
    ASSERT_EQ(seen.size(), 3u);
    // Sorted by name regardless of registration order.
    EXPECT_NE(seen[0].find("\"a.first\""), std::string::npos);
    EXPECT_NE(seen[1].find("\"m.mid\""), std::string::npos);
    EXPECT_NE(seen[2].find("\"z.last\""), std::string::npos);

    EXPECT_EQ(seen[0],
              "{\"name\":\"a.first\",\"kind\":\"counter\","
              "\"value\":12}");
    // Histograms carry their buckets; bucket 2 counts bit_width-2
    // samples (2..3).
    EXPECT_NE(seen[1].find("\"buckets\":[0,0,1"), std::string::npos);
}

TEST(Registry, WriteJsonlRoundTripsThroughDisk)
{
    MetricsRegistry r;
    r.addCounter("disk.counter", 77);
    const std::string path =
        testing::TempDir() + "xmig_obs_registry_test.jsonl";
    writeArtifact(path, r.renderJsonl(), "--metrics-out");

    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[256] = {};
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(std::string(buf, n), r.renderJsonl());
}

TEST(Registry, WriteToUnwritablePathFails)
{
    MetricsRegistry r;
    r.addCounter("c", 1);
    // Exporters write through writeArtifact(): an output that cannot
    // land is fatal and names its flag.
    EXPECT_EXIT(writeArtifact("/nonexistent-dir/metrics.jsonl",
                              r.renderJsonl(), "--metrics-out"),
                testing::ExitedWithCode(1),
                "cannot open --metrics-out output "
                "'/nonexistent-dir/metrics.jsonl'");
}

TEST(Histogram, BucketsByBitWidth)
{
    Histogram h(8);
    h.record(0); // bucket 0
    h.record(1); // bucket 1
    h.record(2); // bucket 2
    h.record(3); // bucket 2
    h.record(200); // bucket 8 clamps to last (7)
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 2u);
    EXPECT_EQ(h.buckets().back(), 1u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.buckets()[2], 0u);
}

TEST(HistogramPercentile, EmptyHistogramReportsZero)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.9), 0.0);
}

TEST(HistogramPercentile, ZeroSamplesAreExactlyZero)
{
    // Bucket 0 holds exactly v == 0 — no interpolation smear.
    Histogram h;
    for (int i = 0; i < 100; ++i)
        h.record(0);
    EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 0.0);
}

TEST(HistogramPercentile, PowerOfTwoSingleSampleIsExact)
{
    // A single sample lands on its bucket's lower bound, and 2^k *is*
    // the lower bound of bucket k+1 — so powers of two round-trip.
    for (const uint64_t v : {1u, 2u, 64u, 1024u, 65536u}) {
        Histogram h;
        h.record(v);
        EXPECT_DOUBLE_EQ(h.percentile(50), static_cast<double>(v)) << v;
        EXPECT_DOUBLE_EQ(h.percentile(99.9), static_cast<double>(v))
            << v;
    }
}

TEST(HistogramPercentile, OutOfRangePIsClamped)
{
    Histogram h;
    h.record(0);
    h.record(1024);
    EXPECT_DOUBLE_EQ(h.percentile(-10), h.percentile(0));
    EXPECT_DOUBLE_EQ(h.percentile(500), h.percentile(100));
    EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 1024.0);
}

TEST(HistogramPercentile, InterpolatesInsideABucket)
{
    // 3 samples in bucket 11 ([1024, 2047]): ranks spread linearly
    // across the span, endpoints on the bounds.
    Histogram h;
    h.record(1024);
    h.record(1500);
    h.record(2000);
    EXPECT_DOUBLE_EQ(h.percentile(0), 1024.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 2047.0);
    const double p50 = h.percentile(50);
    EXPECT_GT(p50, 1024.0);
    EXPECT_LT(p50, 2047.0);
    // Percentiles are monotone in p.
    EXPECT_LE(h.percentile(50), h.percentile(95));
    EXPECT_LE(h.percentile(95), h.percentile(99));
}

TEST(HistogramPercentile, ExportersCarryPercentiles)
{
    MetricsRegistry r;
    Histogram h;
    h.record(256); // one sample: every percentile is exactly 256
    ASSERT_TRUE(r.addHistogram("machine.gap", h));
    const std::string jsonl = r.renderJsonl();
    EXPECT_NE(jsonl.find("\"p50\":256"), std::string::npos) << jsonl;
    EXPECT_NE(jsonl.find("\"p95\":256"), std::string::npos) << jsonl;
    EXPECT_NE(jsonl.find("\"p99\":256"), std::string::npos) << jsonl;
    EXPECT_NE(jsonl.find("\"p999\":256"), std::string::npos) << jsonl;
}

TEST(HistogramPercentile, ZeroHeavyMassKeepsOutlierInTheTail)
{
    // 99 zeros and one large sample: the median must stay exactly
    // zero (bucket 0 is v == 0, no smear into it) and only the very
    // tail may see the outlier. This is the shape of an arena turn
    // histogram when one tenant stalls once.
    Histogram h;
    for (int i = 0; i < 99; ++i)
        h.record(0);
    h.record(1024);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(95), 0.0);
    EXPECT_GE(h.percentile(100), 1024.0);
    EXPECT_LE(h.percentile(99), h.percentile(100));
}

TEST(HistogramPercentile, SaturatingSampleStaysFinite)
{
    // The open-ended last bucket absorbs UINT64_MAX; the percentile
    // must come back finite (its nominal span), not inf/nan.
    Histogram h;
    h.record(~0ull);
    const double p50 = h.percentile(50);
    EXPECT_TRUE(std::isfinite(p50));
    EXPECT_GT(p50, 0.0);
    EXPECT_TRUE(std::isfinite(h.percentile(100)));
}

TEST(HistogramPercentile, ResetRestoresTheEmptyState)
{
    Histogram h;
    h.record(7);
    h.record(70000);
    ASSERT_GT(h.percentile(50), 0.0);
    h.reset();
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(99.9), 0.0);
    uint64_t total = 0;
    for (uint64_t b : h.buckets())
        total += b;
    EXPECT_EQ(total, 0u);
}

TEST(Registry, CounterSnapshotOrderIsByteLexicographic)
{
    // Arena metric paths embed tenant indices ("tenant10" vs
    // "tenant2"): the snapshot contract is plain byte order, not
    // numeric order, and '.' sorts before digits — pin that down so
    // exporters and diff tools agree forever.
    MetricsRegistry r;
    EXPECT_TRUE(r.addCounter("a.tenant2.refs", 1));
    EXPECT_TRUE(r.addCounter("a.tenant10.refs", 2));
    EXPECT_TRUE(r.addCounter("a.tenant1.refs", 3));
    EXPECT_TRUE(r.addCounter("a.tenant1", 4));
    const auto snap = r.counterSnapshot();
    ASSERT_EQ(snap.size(), 4u);
    EXPECT_EQ(snap[0].name, "a.tenant1");
    EXPECT_EQ(snap[1].name, "a.tenant1.refs");
    EXPECT_EQ(snap[2].name, "a.tenant10.refs");
    EXPECT_EQ(snap[3].name, "a.tenant2.refs");
}

TEST(Registry, CounterSnapshotIsStableAcrossCallsAndInsertions)
{
    // Repeated snapshots must agree element-for-element, and a later
    // registration must only insert — never reorder the others.
    MetricsRegistry r;
    EXPECT_TRUE(r.addCounter("zulu", 26));
    EXPECT_TRUE(r.addCounter("alpha", 1));
    const auto first = r.counterSnapshot();
    const auto second = r.counterSnapshot();
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].name, second[i].name);
        EXPECT_EQ(first[i].value, second[i].value);
    }
    EXPECT_TRUE(r.addCounter("mike", 13));
    const auto third = r.counterSnapshot();
    ASSERT_EQ(third.size(), 3u);
    EXPECT_EQ(third[0].name, "alpha");
    EXPECT_EQ(third[1].name, "mike");
    EXPECT_EQ(third[2].name, "zulu");
    EXPECT_TRUE(r.counterSnapshot().empty() == false);
}

TEST(Registry, EmptyAndCounterlessRegistriesSnapshotEmpty)
{
    MetricsRegistry r;
    EXPECT_TRUE(r.counterSnapshot().empty());
    EXPECT_TRUE(r.addGauge("g", 1.0));
    EXPECT_TRUE(r.addHistogram("h", Histogram{}));
    EXPECT_TRUE(r.counterSnapshot().empty())
        << "gauges and histograms are not counters";
}

} // namespace
} // namespace xmig::obs
