/**
 * @file
 * xmig-scope integration (sim/observe.hpp): the observatory attached
 * to a real quadcore run must register the full hierarchical counter
 * tree of both machines, sample a coherent time series, and leave
 * valid artifacts on disk.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "multicore/feed.hpp"
#include "multicore/machine.hpp"
#include "obs/json.hpp"
#include "sim/observe.hpp"
#include "sim/options.hpp"
#include "sim/quadcore.hpp"
#include "workloads/registry.hpp"

namespace xmig {
namespace {

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return "";
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.append(buf, n);
    std::fclose(f);
    return out;
}

/** BenchOptions::parse of the common flags in `args`. */
BenchOptions
parseFlags(std::vector<const char *> args)
{
    args.insert(args.begin(), "bench");
    return BenchOptions::parse(static_cast<int>(args.size()),
                               const_cast<char **>(args.data()));
}

TEST(Observatory, BuiltFromBenchOptions)
{
    const std::string samples =
        testing::TempDir() + "xmig_observe_default_cadence.csv";
    const BenchOptions opt = parseFlags(
        {"--samples-out", samples.c_str(), "--sample-every", "0"});
    EXPECT_TRUE(opt.observing());
    EXPECT_FALSE(parseFlags({}).observing());

    QuadcoreParams p;
    p.instructionsPerBenchmark = 300'000;
    {
        RunObservatory obs(opt);
        EXPECT_EQ(obs.options().samplesOut, samples);
        // --sample-every 0 keeps the sampler's own cadence.
        EXPECT_EQ(obs.sampler().config().sampleEvery,
                  obs::SamplerConfig::kDefaultSampleEvery);
        EXPECT_EQ(obs::SamplerConfig::kDefaultSampleEvery, 10'000u);
        runQuadcore("179.art", p, &obs);
        const auto &s = obs.sampler();
        EXPECT_GT(s.totalSamples(), 10u);
        EXPECT_EQ(s.totalSamples(), s.ticks() / 10'000);
        EXPECT_EQ(s.rowTick(0), 10'000u);
    }
    std::remove(samples.c_str());

    // An explicit cadence is the sampler's.
    const BenchOptions every500 =
        parseFlags({"--samples-out", samples.c_str(), "--sample-every",
                    "500"});
    EXPECT_EQ(RunObservatory(every500).sampler().config().sampleEvery,
              500u);
}

TEST(Observatory, FullQuadcoreRunProducesAllArtifacts)
{
    const std::string metrics =
        testing::TempDir() + "xmig_observe_metrics.jsonl";
    const std::string samples =
        testing::TempDir() + "xmig_observe_samples.csv";
    const std::string trace =
        testing::TempDir() + "xmig_observe_trace.json";

    BenchOptions o;
    o.metricsOut = metrics;
    o.samplesOut = samples;
    o.traceOut = trace;
    o.sampleEvery = 1'000;

    QuadcoreParams p;
    p.instructionsPerBenchmark = 1'000'000;

    QuadcoreRow row;
    {
        RunObservatory obs(o);
        row = runQuadcore("179.art", p, &obs);

        // Hierarchical names for both machines, down to the stats
        // structs that predate the registry.
        const auto &r = obs.registry();
        EXPECT_GT(r.size(), 50u);
        for (const char *path : {
                 "baseline.l2_misses",
                 "baseline.core0.l2.accesses",
                 "machine.refs",
                 "machine.il1.misses",
                 "machine.core3.l2.occupancy",
                 "machine.controller.migrations",
                 "machine.controller.store.evictions",
                 "machine.controller.store.occupancy",
                 "machine.controller.splitter.transitions",
                 "machine.controller.splitter.node0.engine.references",
                 "machine.controller.splitter.node2.filter.value",
             }) {
            EXPECT_TRUE(r.contains(path)) << path;
        }
        // The sampler copied its rows, so it stays readable after
        // the machines are gone; one tick per reference was fed.
        const auto &s = obs.sampler();
        EXPECT_GT(s.samples(), 100u);
        EXPECT_GT(s.ticks(), p.instructionsPerBenchmark);
        EXPECT_EQ(s.totalSamples(), s.ticks() / o.sampleEvery);
    }

    // Artifacts on disk: JSONL parses line by line...
    const std::string jsonl = slurp(metrics);
    ASSERT_FALSE(jsonl.empty());
    size_t lines = 0, start = 0;
    while (start < jsonl.size()) {
        size_t end = jsonl.find('\n', start);
        if (end == std::string::npos)
            end = jsonl.size();
        EXPECT_TRUE(obs::jsonParseOk(jsonl.substr(start, end - start)));
        ++lines;
        start = end + 1;
    }
    EXPECT_GT(lines, 50u);

    // ...the CSV has a header plus >= 100 rows...
    const std::string csv = slurp(samples);
    ASSERT_FALSE(csv.empty());
    EXPECT_EQ(csv.rfind("t,interval,", 0), 0u);
    size_t rows = 0;
    for (const char c : csv)
        rows += c == '\n' ? 1 : 0;
    EXPECT_GT(rows, 100u);

    // ...and the trace is one well-formed JSON document.
    const std::string doc = slurp(trace);
    ASSERT_FALSE(doc.empty());
    EXPECT_TRUE(obs::jsonParseOk(doc));
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    if (row.migrations > 0) {
        EXPECT_NE(doc.find("\"name\":\"migration\""), std::string::npos);
    }

    std::remove(metrics.c_str());
    std::remove(samples.c_str());
    std::remove(trace.c_str());
}

TEST(Observatory, NoOutputsMeansNoFilesAndNoSampling)
{
    BenchOptions o; // everything off
    EXPECT_FALSE(o.observing());
    RunObservatory obs(o);

    QuadcoreParams p;
    p.instructionsPerBenchmark = 100'000;
    const QuadcoreRow row = runQuadcore("164.gzip", p, &obs);
    EXPECT_GT(row.instructions, 0u);
    // Metrics still registered (cheap), but nothing sampled.
    EXPECT_GT(obs.registry().size(), 0u);
    EXPECT_EQ(obs.sampler().samples(), 0u);
    EXPECT_EQ(obs.journal(), nullptr);
}

TEST(Observatory, ObservedRunMatchesUnobservedRun)
{
    // Observation must not perturb the simulation: same benchmark,
    // same seed, identical results with and without the observatory.
    QuadcoreParams p;
    p.instructionsPerBenchmark = 300'000;
    const QuadcoreRow plain = runQuadcore("em3d", p);

    BenchOptions o;
    o.samplesOut = testing::TempDir() + "xmig_observe_same.csv";
    o.sampleEvery = 777;
    RunObservatory obs(o);
    const QuadcoreRow observed = runQuadcore("em3d", p, &obs);

    EXPECT_EQ(plain.instructions, observed.instructions);
    EXPECT_EQ(plain.l1Misses, observed.l1Misses);
    EXPECT_EQ(plain.l2MissesBaseline, observed.l2MissesBaseline);
    EXPECT_EQ(plain.l2Misses4x, observed.l2Misses4x);
    EXPECT_EQ(plain.migrations, observed.migrations);
    std::remove(o.samplesOut.c_str());
}

// One core goes offline mid-run, so the controller resplits 4 -> 2.
constexpr const char *kChurnPlan = "at=200000:core_off=1";

TEST(Observatory, ResplitExportsLiveSplitterAndWholeRunStore)
{
    MachineConfig cfg;
    cfg.faultPlan = kChurnPlan;
    MigrationMachine machine(cfg);
    auto workload = makeWorkload("181.mcf");

    RunObservatory obs(BenchOptions{});
    obs.attachMachine(machine, "machine", /*sampled=*/true);
    ChunkFeed feed({&machine}, {}, 0, &obs);
    feed.run(*workload, 1'000'000);
    EXPECT_EQ(obs.registry().size(), 0u); // filled by finish()
    obs.finish();

    const MigrationController &c = *machine.controller();
    ASSERT_EQ(c.recovery().resplits, 1u);
    ASSERT_EQ(c.splitWays(), 2u);
    const auto &r = obs.registry();
    EXPECT_EQ(r.counterValue("machine.controller.splitter.transitions"),
              c.splitterTransitions());
    EXPECT_EQ(r.counterValue("machine.controller.store.lookups"),
              c.store().stats().lookups);
    EXPECT_EQ(r.counterValue("machine.controller.store.evictions"),
              c.store().stats().evictions);
    EXPECT_EQ(
        r.counterValue("machine.controller.splitter.node0.engine."
                       "references"),
        c.rootEngine().references());
    // A 2-way split has one tree node; the 4-way tree had three.
    EXPECT_FALSE(r.contains("machine.controller.splitter.node1.filter."
                            "value"));
}

TEST(Observatory, SampledStoreEvictionsFollowTheLiveStoreAfterResplit)
{
    BenchOptions o;
    o.samplesOut = testing::TempDir() + "xmig_observe_resplit.csv";
    o.sampleEvery = 10'000;
    QuadcoreParams p;
    p.instructionsPerBenchmark = 2'000'000;
    p.machine.faultPlan = kChurnPlan;

    RunObservatory obs(o);
    runQuadcore("181.mcf", p, &obs);
    std::remove(o.samplesOut.c_str());
    ASSERT_EQ(obs.registry().counterValue(
                  "machine.controller.recovery.resplits"),
              1u);

    const auto &s = obs.sampler();
    const auto &names = s.columnNames();
    const size_t col =
        std::find(names.begin(), names.end(), "store_evictions") -
        names.begin();
    ASSERT_LT(col, names.size());
    // The fault fires 200,000 references in; every later row lies
    // past the resplit and must see the live store's evictions.
    uint64_t late_rows = 0, evicting = 0;
    for (size_t i = 0; i < s.samples(); ++i) {
        if (s.rowTick(i) <= 400'000)
            continue;
        ++late_rows;
        evicting += s.rowValues(i)[col] > 0 ? 1 : 0;
    }
    ASSERT_GT(late_rows, 0u);
    EXPECT_GT(evicting, 0u);
}

} // namespace
} // namespace xmig
