/**
 * @file
 * xmig-lens event journal (obs/journal.hpp): ring bounds and
 * overwrite accounting, sequence/clock stamping, JSONL export shape
 * (every line a complete JSON object), the Chrome trace rendering,
 * post-mortem dumps, and the null-safety of the XMIG_JOURNAL macro
 * family.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/journal.hpp"
#include "obs/json.hpp"

namespace xmig::obs {
namespace {

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            out.push_back(line);
    return out;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(Journal, StartsEmpty)
{
    Journal j(8);
    EXPECT_EQ(j.capacity(), 8u);
    EXPECT_EQ(j.size(), 0u);
    EXPECT_EQ(j.recorded(), 0u);
    EXPECT_EQ(j.dropped(), 0u);
    EXPECT_EQ(j.clock(), 0u);
}

TEST(Journal, RecordStampsSeqAndClock)
{
    Journal j(8);
    j.setClock(100);
    j.record(JournalKind::Migration, JournalCause::Threshold, 0, 1, 1);
    j.setClock(250);
    j.record(JournalKind::Transition, JournalCause::Threshold, 3);
    ASSERT_EQ(j.size(), 2u);
    EXPECT_EQ(j.eventAt(0).seq, 0u);
    EXPECT_EQ(j.eventAt(0).time, 100u);
    EXPECT_EQ(j.eventAt(0).kind, JournalKind::Migration);
    EXPECT_EQ(j.eventAt(0).cause, JournalCause::Threshold);
    EXPECT_EQ(j.eventAt(0).arg[0], 0);
    EXPECT_EQ(j.eventAt(0).arg[1], 1);
    EXPECT_EQ(j.eventAt(1).seq, 1u);
    EXPECT_EQ(j.eventAt(1).time, 250u);
}

TEST(Journal, RingOverwritesOldestPastCapacity)
{
    Journal j(4);
    for (int64_t i = 0; i < 10; ++i)
        j.record(JournalKind::Transition, JournalCause::None, i);
    EXPECT_EQ(j.size(), 4u);
    EXPECT_EQ(j.recorded(), 10u);
    EXPECT_EQ(j.dropped(), 6u);
    // The retained window is the newest 4 events, oldest first, and
    // seq numbers keep counting across the overwrites.
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(j.eventAt(i).seq, 6u + i);
        EXPECT_EQ(j.eventAt(i).arg[0], static_cast<int64_t>(6 + i));
    }
}

TEST(Journal, ClearKeepsClockAndDumpPath)
{
    Journal j(4);
    j.setClock(42);
    j.setDumpPath("/tmp/never-written.jsonl");
    j.record(JournalKind::Checkpoint, JournalCause::Explicit, 7);
    j.clear();
    EXPECT_EQ(j.size(), 0u);
    EXPECT_EQ(j.recorded(), 0u);
    EXPECT_EQ(j.dropped(), 0u);
    EXPECT_EQ(j.clock(), 42u);
    EXPECT_EQ(j.dumpPath(), "/tmp/never-written.jsonl");
}

TEST(Journal, JsonlEveryLineParsesAndHeaderIsHonest)
{
    Journal j(4);
    for (int64_t i = 0; i < 6; ++i) {
        j.setClock(static_cast<uint64_t>(10 * i));
        j.record(JournalKind::Migration, JournalCause::Threshold, i,
                 i + 1, i, 12, 3);
    }
    const auto ls = lines(j.renderJsonl());
    ASSERT_EQ(ls.size(), 5u); // header + 4 retained events
    for (const auto &l : ls)
        EXPECT_TRUE(jsonParseOk(l)) << l;
    EXPECT_NE(ls[0].find("\"journal\":\"xmig-lens\""), std::string::npos);
    EXPECT_NE(ls[0].find("\"capacity\":4"), std::string::npos);
    EXPECT_NE(ls[0].find("\"recorded\":6"), std::string::npos);
    EXPECT_NE(ls[0].find("\"dropped\":2"), std::string::npos);
    // Events carry kind/cause names and the per-kind arg names.
    EXPECT_NE(ls[1].find("\"kind\":\"migration\""), std::string::npos);
    EXPECT_NE(ls[1].find("\"cause\":\"threshold\""), std::string::npos);
    EXPECT_NE(ls[1].find("\"from\":"), std::string::npos);
    EXPECT_NE(ls[1].find("\"to\":"), std::string::npos);
}

TEST(Journal, KindAndCauseTablesAreTotal)
{
    for (size_t k = 0; k < static_cast<size_t>(JournalKind::kCount); ++k) {
        const auto kind = static_cast<JournalKind>(k);
        EXPECT_STRNE(journalKindName(kind), "?") << k;
        EXPECT_NE(journalArgNames(kind), nullptr) << k;
    }
    for (size_t c = 0; c < static_cast<size_t>(JournalCause::kCount); ++c)
        EXPECT_STRNE(journalCauseName(static_cast<JournalCause>(c)), "?")
            << c;
}

TEST(Journal, WriteJsonlRoundTripsThroughDisk)
{
    Journal j(8);
    j.record(JournalKind::CoreOff, JournalCause::FaultForced, 1, 5);
    const std::string path =
        testing::TempDir() + "xmig_journal_roundtrip.jsonl";
    ASSERT_TRUE(j.writeJsonl(path));
    EXPECT_EQ(slurp(path), j.renderJsonl());
    std::remove(path.c_str());
}

size_t
countOf(const std::string &text, const std::string &needle)
{
    size_t n = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++n;
    return n;
}

TEST(Journal, ChromeTraceRendersEveryRetainedEvent)
{
    // Six events through a 4-slot ring: the two oldest (a transition
    // and a node flip) are overwritten, four are retained.
    Journal j(4);
    j.record(JournalKind::Transition, JournalCause::Threshold, 1, 7, 2, 9);
    j.record(JournalKind::NodeFlip, JournalCause::Threshold, 0, 0, -1);
    j.setClock(10);
    j.record(JournalKind::Migration, JournalCause::Threshold, 0, 2, 1, 5,
             -3);
    j.setClock(20);
    j.record(JournalKind::CoherenceScrub, JournalCause::FaultForced, 3,
             4096);
    j.setClock(30);
    j.record(JournalKind::ForcedMigration, JournalCause::FaultForced, 2,
             1);
    j.setClock(40);
    j.record(JournalKind::CoherenceScrub, JournalCause::FaultForced, 2,
             8192);

    const std::string doc = j.renderChromeTrace();
    EXPECT_TRUE(jsonParseOk(doc)) << doc;
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);

    // One instant per retained event, each with its named args, and
    // nothing of the overwritten ones.
    EXPECT_EQ(countOf(doc, "\"ph\":\"i\""), j.size());
    EXPECT_EQ(doc.find("\"transition\""), std::string::npos);
    EXPECT_EQ(doc.find("\"node_flip\""), std::string::npos);
    const auto ls = lines(doc);
    auto lineOf = [&](const std::string &needle) {
        for (size_t i = 0; i < ls.size(); ++i)
            if (ls[i].find(needle) != std::string::npos)
                return i;
        return ls.size();
    };
    const size_t mig = lineOf("\"name\":\"migration\"");
    ASSERT_LT(mig + 1, ls.size());
    EXPECT_NE(ls[mig].find("\"cat\":\"threshold\""), std::string::npos);
    EXPECT_NE(ls[mig].find("\"ts\":10,"), std::string::npos);
    EXPECT_NE(ls[mig].find("\"args\":{\"from\":0,\"to\":2,\"n\":1,"
                           "\"ar\":5,\"filter\":-3}"),
              std::string::npos);

    // The active_core counter follows each (forced) migration...
    EXPECT_NE(ls[mig + 1].find("\"name\":\"active_core\""),
              std::string::npos);
    EXPECT_NE(ls[mig + 1].find("\"ph\":\"C\",\"ts\":10,"),
              std::string::npos);
    EXPECT_NE(ls[mig + 1].find("\"args\":{\"value\":2}"),
              std::string::npos);
    const size_t forced = lineOf("\"name\":\"forced_migration\"");
    ASSERT_LT(forced + 1, ls.size());
    EXPECT_NE(ls[forced].find("\"args\":{\"from\":2,\"to\":1}"),
              std::string::npos);
    EXPECT_NE(ls[forced + 1].find("\"args\":{\"value\":1}"),
              std::string::npos);
    // ...and coherence_repairs accumulates over the scrubs: 3, 3+2.
    EXPECT_EQ(countOf(doc, "\"name\":\"coherence_repairs\""), 2u);
    EXPECT_NE(doc.find("\"ts\":20,\"pid\":0,\"tid\":0,"
                       "\"args\":{\"value\":3}"),
              std::string::npos);
    EXPECT_NE(doc.find("\"ts\":40,\"pid\":0,\"tid\":0,"
                       "\"args\":{\"value\":5}"),
              std::string::npos);
    EXPECT_EQ(countOf(doc, "\"ph\":\"C\""), 4u);

    // The ring overflow is reported honestly.
    EXPECT_NE(doc.find("\"recorded\":6,\"dropped\":2"),
              std::string::npos);

    // An empty journal still renders a valid document, and the file
    // export writes exactly the rendering.
    EXPECT_TRUE(jsonParseOk(Journal(8).renderChromeTrace()));
    const std::string path = testing::TempDir() + "xmig_journal_trace.json";
    ASSERT_TRUE(j.writeChromeTrace(path));
    EXPECT_EQ(slurp(path), doc);
    std::remove(path.c_str());
}

TEST(Journal, DumpNowAppendsIncidentLine)
{
    Journal j(8);
    j.record(JournalKind::WatchdogTrip, JournalCause::Livelock, 9, 4);
    // No dump path armed: dumpNow refuses.
    EXPECT_FALSE(j.dumpNow("livelock"));
    const std::string path = testing::TempDir() + "xmig_journal_incident.jsonl";
    j.setDumpPath(path);
    ASSERT_TRUE(j.dumpNow("livelock"));
    const auto ls = lines(slurp(path));
    ASSERT_GE(ls.size(), 3u); // header + event + incident
    for (const auto &l : ls)
        EXPECT_TRUE(jsonParseOk(l)) << l;
    EXPECT_NE(ls.back().find("\"incident\":\"livelock\""),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(JournalMacros, NullPointerIsSafeAndFree)
{
    Journal *none = nullptr;
    // None of these may crash, and with a null journal the argument
    // expressions must not be evaluated.
    int evaluated = 0;
    XMIG_JOURNAL(none, JournalKind::Migration, JournalCause::Threshold,
                 (++evaluated, 0));
    XMIG_JOURNAL_CLOCK(none, (++evaluated, 1));
    XMIG_JOURNAL_INCIDENT(none, "nope");
    EXPECT_EQ(evaluated, 0);
}

TEST(JournalMacros, RecordThroughMacroWhenAttached)
{
    Journal j(4);
    Journal *ptr = &j;
    XMIG_JOURNAL_CLOCK(ptr, 77);
    XMIG_JOURNAL(ptr, JournalKind::Resplit, JournalCause::FaultForced,
                 2, 0b1011, 123);
    ASSERT_EQ(j.size(), 1u);
    EXPECT_EQ(j.eventAt(0).time, 77u);
    EXPECT_EQ(j.eventAt(0).kind, JournalKind::Resplit);
    EXPECT_EQ(j.eventAt(0).arg[0], 2);
}

} // namespace
} // namespace xmig::obs
