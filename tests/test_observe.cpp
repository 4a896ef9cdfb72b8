/**
 * @file
 * xmig-scope integration (sim/observe.hpp): the observatory attached
 * to a real quadcore run must register the full hierarchical counter
 * tree of both machines, sample a coherent time series, and leave
 * valid artifacts on disk.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "obs/json.hpp"
#include "sim/observe.hpp"
#include "sim/options.hpp"
#include "sim/quadcore.hpp"

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

TEST(ObserveOptions, BuiltFromCliFlags)
{
    const char *argv[] = {"bench",          "--metrics-out", "m.jsonl",
                          "--samples-out",  "s.csv",         "--trace-out",
                          "t.json",         "--sample-every", "500"};
    const BenchOptions opt =
        BenchOptions::parse(9, const_cast<char **>(argv));
    EXPECT_TRUE(opt.observing());
    const ObserveOptions o = observeOptionsOf(opt);
    EXPECT_EQ(o.metricsOut, "m.jsonl");
    EXPECT_EQ(o.samplesOut, "s.csv");
    EXPECT_EQ(o.traceOut, "t.json");
    EXPECT_EQ(o.sampleEvery, 500u);

    const BenchOptions none = BenchOptions::parse(1, nullptr);
    EXPECT_FALSE(none.observing());
    // Unset cadence keeps the sampler default.
    EXPECT_EQ(observeOptionsOf(none).sampleEvery,
              ObserveOptions{}.sampleEvery);
}

TEST(Observatory, FullQuadcoreRunProducesAllArtifacts)
{
    const std::string metrics =
        testing::TempDir() + "xmig_observe_metrics.jsonl";
    const std::string samples =
        testing::TempDir() + "xmig_observe_samples.csv";
    const std::string trace =
        testing::TempDir() + "xmig_observe_trace.json";

    ObserveOptions o;
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
    ObserveOptions o; // everything off
    EXPECT_FALSE(o.any());
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

    ObserveOptions o;
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

} // namespace
} // namespace xmig
