/**
 * @file
 * xmig-storm soak: a guided campaign with a persistent corpus —
 * corpus round-trips, persistence across runs, determinism at any
 * jobs count, and the failure path — minimized repro plus attached
 * journal, replayable to the same oracle.
 */

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fuzz/campaign.hpp"
#include "fuzz/corpus.hpp"
#include "sim/runner/job_pool.hpp"

namespace xmig {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** A small deterministic soak configuration. */
CampaignConfig
smallSoak(uint64_t plans)
{
    CampaignConfig config;
    config.instructions = 25'000;
    config.plans = plans;
    return config;
}

/** A guided campaign drawn from `seed`: a soak when given a corpus. */
CampaignResult
soak(uint64_t seed, const CampaignConfig &config,
     const PropertyHarness &harness, unsigned jobs)
{
    CoverageGuidedGenerator source(seed);
    return runCampaign(config, source, harness, JobPool(jobs));
}

TEST(SoakCorpus, EntryRoundTripsAndIsContentAddressed)
{
    FuzzCase c;
    c.plan = "seed=9;at=100:core_off=1;rate=0.01:bus_drop";
    c.benchmark = "storm.phase";
    c.workloadSeed = 77;
    c.instructions = 12'345;

    const std::string body = renderCorpusEntry(c);
    FuzzCase back;
    ASSERT_TRUE(parseCorpusEntry(body, &back));
    EXPECT_EQ(back.plan, c.plan);
    EXPECT_EQ(back.benchmark, c.benchmark);
    EXPECT_EQ(back.workloadSeed, c.workloadSeed);
    EXPECT_EQ(back.instructions, c.instructions);

    // Content addressing: same case, same name; any field change,
    // different name.
    const std::string name = corpusEntryName(c);
    EXPECT_EQ(name.find("case-"), 0u);
    EXPECT_EQ(name.substr(name.size() - 4), ".txt");
    EXPECT_EQ(corpusEntryName(back), name);
    FuzzCase other = c;
    other.workloadSeed = 78;
    EXPECT_NE(corpusEntryName(other), name);
}

TEST(SoakCorpus, MalformedEntriesAreRejectedNotFatal)
{
    FuzzCase out;
    EXPECT_FALSE(parseCorpusEntry("", &out));
    EXPECT_FALSE(parseCorpusEntry("plan=\nbenchmark=x\n", &out));
    EXPECT_FALSE(
        parseCorpusEntry("plan=seed=1\nbenchmark=\n", &out));
    EXPECT_FALSE(parseCorpusEntry(
        "plan=not a plan at all\nbenchmark=181.mcf\n", &out));
    EXPECT_FALSE(parseCorpusEntry(
        "plan=seed=1\nbenchmark=181.mcf\nmystery=1\n", &out));
    EXPECT_FALSE(parseCorpusEntry(
        "plan=seed=1\nbenchmark=181.mcf\ninstructions=0\n", &out));
    // Comments and defaults are fine.
    EXPECT_TRUE(parseCorpusEntry(
        "# a comment\nplan=seed=1\nbenchmark=181.mcf\n"
        "workload_seed=3\ninstructions=1000\n",
        &out));
    EXPECT_EQ(out.workloadSeed, 3u);
}

TEST(Soak, PersistsNovelCasesAndReplaysThemNextRun)
{
    const std::string corpus =
        ::testing::TempDir() + "soak_corpus_persist";
    std::filesystem::remove_all(corpus);
    const PropertyHarness harness;

    CampaignConfig config = smallSoak(24);
    config.corpusDir = corpus;
    const CampaignResult first = soak(11, config, harness, 2);
    EXPECT_EQ(first.cases, 24u);
    EXPECT_EQ(first.corpusLoaded, 0u);
    EXPECT_GT(first.corpusSaved, 0u);
    EXPECT_TRUE(first.failures.empty());

    // A second run over the same directory warms up from the saved
    // corpus and, having seen those cases, saves nothing for them.
    const CampaignResult second = soak(11, config, harness, 2);
    EXPECT_EQ(second.corpusLoaded, first.corpusSaved);
    EXPECT_GT(second.coverage.countersHit(), 0u);
}

TEST(Soak, SummaryIsByteIdenticalAcrossJobs)
{
    // A soak run is a pure function of (seed, config, corpus
    // contents) — and it *appends* to its corpus, so each jobs count
    // gets its own copy of one seeded directory.
    const std::string seedDir =
        ::testing::TempDir() + "soak_corpus_jobs_seed";
    std::filesystem::remove_all(seedDir);
    const PropertyHarness harness;

    CampaignConfig config = smallSoak(16);
    config.corpusDir = seedDir;
    soak(13, config, harness, 2);

    std::vector<std::string> summaries;
    for (const unsigned jobs : {1u, 2u, 4u}) {
        const std::string dir = ::testing::TempDir() +
                                "soak_corpus_jobs_" +
                                std::to_string(jobs);
        std::filesystem::remove_all(dir);
        std::filesystem::copy(seedDir, dir);
        CampaignConfig run = config;
        run.corpusDir = dir;
        summaries.push_back(soak(13, run, harness, jobs).summary());
    }
    EXPECT_EQ(summaries[0], summaries[1]);
    EXPECT_EQ(summaries[0], summaries[2]);
    EXPECT_EQ(summaries[0].find("cases=16 "), 0u);
    EXPECT_NE(summaries[0].find(" corpus_loaded="), std::string::npos);
    EXPECT_GT(soak(13, config, harness, 2).corpusLoaded, 0u);
    EXPECT_NE(summaries[0].find("coverage: counters_hit="),
              std::string::npos);
}

TEST(Soak, FailuresArriveMinimizedWithJournalAndReplay)
{
    const std::string repros =
        ::testing::TempDir() + "soak_repros";
    HarnessConfig hc;
    hc.brokenOracle = true;
    const PropertyHarness harness(hc);

    // Seed 3 samples plans targeting both core_off and bus_drop
    // within a small budget (same property test_fuzz_campaign's
    // pipeline test leans on), so the broken oracle fires.
    CampaignConfig config = smallSoak(32);
    config.reproDir = repros;
    config.corpusDir = ::testing::TempDir() + "soak_corpus_failures";
    std::filesystem::remove_all(config.corpusDir);
    const CampaignResult r = soak(3, config, harness, 2);
    ASSERT_FALSE(r.failures.empty());

    const CampaignFailure &f = r.failures.front();
    EXPECT_EQ(f.failure.oracle, "broken_self_test");

    // Pre-minimized: the written repro holds the ddmin'd plan, which
    // must be no longer than the original and still failing.
    EXPECT_LE(f.minimized.plan.size(), f.original.plan.size());
    ASSERT_FALSE(f.reproPath.empty());
    const std::string repro = slurp(f.reproPath);
    EXPECT_NE(repro.find(f.minimized.plan), std::string::npos);
    EXPECT_NE(repro.find("--replay"), std::string::npos);

    // The journal ships next to the repro, under the one repro name.
    const std::string stem =
        repros + "/repro_case" + std::to_string(f.caseIndex);
    EXPECT_EQ(f.reproPath, stem + ".txt");
    EXPECT_EQ(f.journalPath, stem + ".journal.jsonl");
    const std::string journal = slurp(f.journalPath);
    EXPECT_FALSE(journal.empty());
    EXPECT_EQ(journal[0], '{');

    // And the minimized case replays to the same oracle verdict.
    const CaseResult replay = harness.run(f.minimized);
    ASSERT_TRUE(replay.failed());
    EXPECT_EQ(replay.failures.front().oracle, "broken_self_test");

    // Bit-identical reruns: same seed and corpus, same failures,
    // same bytes.
    std::filesystem::remove_all(config.corpusDir);
    const CampaignResult again = soak(3, config, harness, 2);
    EXPECT_EQ(again.summary(), r.summary());
    EXPECT_EQ(slurp(again.failures.front().reproPath), repro);
}

} // namespace
} // namespace xmig
