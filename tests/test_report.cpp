/**
 * @file
 * xmig-lens report library (tools/xmig_report/report.hpp): artifact
 * sniffing, journal/metrics parsing, the causal `explain` renderer,
 * and the diff — self-diff must be zero deltas and match, and a
 * perturbed journal must differ and name its first divergent event.
 */

#include <gtest/gtest.h>

#include <string>

#include "../tools/xmig_report/report.hpp"

using namespace xmig::report;

namespace {

const char kJournalFixture[] =
    "{\"journal\":\"xmig-lens\",\"capacity\":8,\"recorded\":5,"
    "\"dropped\":0}\n"
    "{\"seq\":0,\"t\":100,\"kind\":\"transition\",\"cause\":"
    "\"threshold\",\"subset\":1,\"ae\":3,\"filter\":2,\"ar\":5}\n"
    "{\"seq\":1,\"t\":120,\"kind\":\"migration\",\"cause\":"
    "\"threshold\",\"from\":0,\"to\":1,\"n\":1,\"ar\":6,\"filter\":3}\n"
    "{\"seq\":2,\"t\":150,\"kind\":\"fault_inject\",\"cause\":"
    "\"plan_event\",\"site\":2,\"tick\":150}\n"
    "{\"seq\":3,\"t\":180,\"kind\":\"transition\",\"cause\":"
    "\"threshold\",\"subset\":0,\"ae\":2,\"filter\":1,\"ar\":4}\n"
    "{\"seq\":4,\"t\":200,\"kind\":\"migration\",\"cause\":"
    "\"threshold\",\"from\":1,\"to\":0,\"n\":2,\"ar\":7,\"filter\":2}\n";

const char kMetricsFixture[] =
    "{\"name\":\"machine.migrations\",\"kind\":\"counter\","
    "\"value\":2}\n"
    "{\"name\":\"machine.refs\",\"kind\":\"counter\",\"value\":1000}\n"
    "{\"name\":\"machine.inter_migration_refs\",\"kind\":\"histogram\","
    "\"value\":2,\"p50\":80,\"p95\":80,\"p99\":80,\"p999\":80,"
    "\"buckets\":[0,0,0,0,0,0,2]}\n";

TEST(DetectInput, SniffsEveryArtifactKind)
{
    EXPECT_EQ(detectInput(kJournalFixture), InputKind::Journal);
    EXPECT_EQ(detectInput(kMetricsFixture), InputKind::Metrics);
    EXPECT_EQ(detectInput("t,interval,refs\n0,1,100\n"),
              InputKind::Samples);
    EXPECT_EQ(detectInput("not an artifact"), InputKind::Unknown);
    EXPECT_EQ(detectInput(""), InputKind::Unknown);
}

TEST(ParseJournal, HeaderEventsAndArgs)
{
    const JournalDoc doc = parseJournal(kJournalFixture);
    ASSERT_TRUE(doc.ok) << doc.error;
    EXPECT_EQ(doc.capacity, 8u);
    EXPECT_EQ(doc.recorded, 5u);
    EXPECT_EQ(doc.dropped, 0u);
    ASSERT_EQ(doc.events.size(), 5u);
    EXPECT_EQ(doc.events[1].kind, "migration");
    EXPECT_EQ(doc.events[1].cause, "threshold");
    EXPECT_DOUBLE_EQ(doc.events[1].arg("to"), 1.0);
    EXPECT_DOUBLE_EQ(doc.events[1].arg("ar"), 6.0);
    EXPECT_DOUBLE_EQ(doc.events[1].arg("absent", -1.0), -1.0);
}

TEST(ParseJournal, RejectsForeignHeader)
{
    EXPECT_FALSE(parseJournal("{\"journal\":\"other\"}\n").ok);
    EXPECT_FALSE(parseJournal("").ok);
}

TEST(ParseMetrics, RowsAndPercentiles)
{
    const MetricsDoc doc = parseMetrics(kMetricsFixture);
    ASSERT_TRUE(doc.ok) << doc.error;
    ASSERT_EQ(doc.rows.size(), 3u);
    const MetricRow *h = doc.find("machine.inter_migration_refs");
    ASSERT_NE(h, nullptr);
    EXPECT_TRUE(h->hasPercentiles);
    EXPECT_DOUBLE_EQ(h->p50, 80.0);
    const MetricRow *c = doc.find("machine.refs");
    ASSERT_NE(c, nullptr);
    EXPECT_FALSE(c->hasPercentiles);
    EXPECT_DOUBLE_EQ(c->value, 1000.0);
    EXPECT_EQ(doc.find("no.such.metric"), nullptr);
}

TEST(Explain, RendersCausalChainForMigrationN)
{
    const JournalDoc doc = parseJournal(kJournalFixture);
    ASSERT_TRUE(doc.ok);
    const std::string out = renderExplain(doc, 2);
    // Golden shape: verdict line, decision state, then the window
    // opening right after migration 1 (fault_inject + transition +
    // migration 2 itself = 3 events).
    EXPECT_NE(out.find("migration 2: core 1 -> 0 at t=200 (threshold)"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("decision state: A_R=7 filter=2"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("causal chain (3 event(s) since migration 1):"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("fault_inject"), std::string::npos) << out;
}

TEST(Explain, MissingMigrationIsAnError)
{
    const JournalDoc doc = parseJournal(kJournalFixture);
    ASSERT_TRUE(doc.ok);
    EXPECT_EQ(renderExplain(doc, 99).rfind("error:", 0), 0u);
    EXPECT_EQ(renderExplain(parseJournal(""), 1).rfind("error:", 0), 0u);
}

TEST(Diff, SelfDiffIsZeroDeltasAndPasses)
{
    for (const char *fixture : {kJournalFixture, kMetricsFixture}) {
        const DiffResult r = diffTexts(fixture, fixture);
        EXPECT_TRUE(r.ok) << r.error;
        EXPECT_TRUE(r.deltas.empty());
        EXPECT_FALSE(r.differ());
        EXPECT_NE(r.render().find("verdict: PASS"), std::string::npos);
    }
}

TEST(Diff, PerturbedJournalYieldsCausalDeltas)
{
    std::string perturbed = kJournalFixture;
    // Turn the second transition into a second fault injection: both
    // per-(kind, cause) counts shift, and the positional comparison
    // must name the first divergent event.
    const std::string line3 =
        "{\"seq\":3,\"t\":180,\"kind\":\"transition\",\"cause\":"
        "\"threshold\",\"subset\":0,\"ae\":2,\"filter\":1,\"ar\":4}";
    const size_t at = perturbed.find(line3);
    ASSERT_NE(at, std::string::npos);
    perturbed.replace(at, line3.size(),
                      "{\"seq\":3,\"t\":180,\"kind\":\"fault_inject\","
                      "\"cause\":\"plan_event\",\"site\":1,"
                      "\"tick\":180}");
    const DiffResult r = diffTexts(kJournalFixture, perturbed);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_EQ(r.deltas.size(), 2u) << r.render();
    bool sawInjectDelta = false, sawTransitionDelta = false;
    for (const Delta &d : r.deltas) {
        if (d.key == "count.fault_inject.plan_event")
            sawInjectDelta = d.a == 1.0 && d.b == 2.0;
        if (d.key == "count.transition.threshold")
            sawTransitionDelta = d.a == 2.0 && d.b == 1.0;
    }
    EXPECT_TRUE(sawInjectDelta) << r.render();
    EXPECT_TRUE(sawTransitionDelta) << r.render();
    bool sawDivergence = false;
    for (const std::string &note : r.notes)
        if (note.find("first divergence at event 3") !=
            std::string::npos)
            sawDivergence = true;
    EXPECT_TRUE(sawDivergence) << r.render();
    // Any delta makes the runs differ: the CLI exits 1, as diff(1).
    EXPECT_TRUE(r.differ());
    EXPECT_NE(r.render().find("verdict: DIFFER"), std::string::npos);
}

TEST(Diff, MismatchedKindsAreAnError)
{
    const DiffResult r = diffTexts(kJournalFixture, kMetricsFixture);
    EXPECT_FALSE(r.ok);
    EXPECT_FALSE(r.error.empty());
}

} // namespace
