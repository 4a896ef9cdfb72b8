/**
 * @file
 * xmig-scope time-series sampler (obs/sampler.hpp): cadence, delta
 * columns, ring-buffer wraparound and CSV export.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/sampler.hpp"
#include "util/artifact.hpp"

namespace xmig::obs {
namespace {

SamplerConfig
cfg(uint64_t every)
{
    SamplerConfig c;
    c.sampleEvery = every;
    return c;
}

constexpr size_t kCap = TimeSeriesSampler::kCapacity;

TEST(Sampler, SamplesOnCadence)
{
    TimeSeriesSampler s(cfg(10));
    int probes = 0;
    s.addColumn("p", [&] { return static_cast<double>(++probes); });

    for (int t = 0; t < 9; ++t)
        EXPECT_FALSE(s.tick());
    EXPECT_TRUE(s.tick()); // tick 10
    EXPECT_EQ(s.samples(), 1u);
    EXPECT_EQ(probes, 1);
    EXPECT_EQ(s.rowTick(0), 10u);

    // A coarse tick(25) crosses two sample points at once.
    EXPECT_TRUE(s.tick(25));
    EXPECT_EQ(s.samples(), 3u);
    EXPECT_EQ(s.rowTick(1), 35u);
    EXPECT_EQ(s.rowTick(2), 35u);
}

TEST(Sampler, DeltaColumnsReportPerIntervalRates)
{
    TimeSeriesSampler s(cfg(10));
    uint64_t events = 0;
    s.addDeltaColumn("rate", &events);

    events = 4;
    s.tick(10);
    events = 9;
    s.tick(10);
    s.tick(10); // no growth this interval

    ASSERT_EQ(s.samples(), 3u);
    EXPECT_EQ(s.rowValues(0)[0], 4.0);
    EXPECT_EQ(s.rowValues(1)[0], 5.0);
    EXPECT_EQ(s.rowValues(2)[0], 0.0);
}

TEST(Sampler, DeltaBaselineIsRegistrationTimeValue)
{
    uint64_t events = 100; // pre-existing history must not leak in
    TimeSeriesSampler s(cfg(5));
    s.addDeltaColumn("rate", &events);
    events = 103;
    s.tick(5);
    EXPECT_EQ(s.rowValues(0)[0], 3.0);
}

TEST(Sampler, RebaseAfterCounterResetReportsGrowthSinceReset)
{
    TimeSeriesSampler s(cfg(10));
    uint64_t events = 0;
    s.addDeltaColumn("rate", &events);
    events = 50;
    s.tick(10);
    events = 0; // counters zeroed mid-interval (warm-up reset)
    s.rebaseDeltas();
    events = 7;
    s.tick(10);
    ASSERT_EQ(s.samples(), 2u);
    EXPECT_EQ(s.rowValues(0)[0], 50.0);
    EXPECT_EQ(s.rowValues(1)[0], 7.0);
}

TEST(Sampler, IntervalColumnDrainsTicks)
{
    TimeSeriesSampler s(cfg(10));
    s.addColumn("c", [] { return 0.0; });
    s.tick(10);
    s.tick(3);
    s.sampleNow(); // off-cadence: interval is just 3
    s.tick(7);     // completes the pending cadence window
    ASSERT_EQ(s.samples(), 3u);
    // t and interval are the first two CSV columns.
    std::istringstream lines(s.renderCsv());
    std::string line;
    std::getline(lines, line);
    EXPECT_EQ(line, "t,interval,c");
    std::getline(lines, line);
    EXPECT_EQ(line, "10,10,0");
    std::getline(lines, line);
    EXPECT_EQ(line, "13,3,0");
    std::getline(lines, line);
    EXPECT_EQ(line, "20,7,0");
}

TEST(Sampler, RingWrapsKeepingNewestRows)
{
    TimeSeriesSampler s(cfg(1));
    s.addColumn("t2", [&] { return static_cast<double>(s.ticks()); });

    const uint64_t total = kCap + 6;
    for (uint64_t t = 0; t < total; ++t)
        s.tick();
    EXPECT_TRUE(s.wrapped());
    EXPECT_EQ(s.totalSamples(), total);
    EXPECT_EQ(s.samples(), kCap); // bounded memory

    // Oldest surviving row first: ticks 7, 8, ..., kCap + 6.
    for (size_t i = 0; i < kCap; ++i) {
        EXPECT_EQ(s.rowTick(i), 7 + i);
        EXPECT_EQ(s.rowValues(i)[0], static_cast<double>(7 + i));
    }

    // The CSV sees the same window, in the same order.
    std::istringstream lines(s.renderCsv());
    std::string line;
    std::getline(lines, line); // header
    std::getline(lines, line);
    EXPECT_EQ(line, "7,1,7");
    size_t rows = 1;
    while (std::getline(lines, line))
        ++rows;
    EXPECT_EQ(rows, kCap);
}

TEST(Sampler, ExactlyAtCapacityDoesNotWrap)
{
    TimeSeriesSampler s(cfg(1));
    s.addColumn("c", [] { return 1.0; });
    for (size_t t = 0; t < kCap; ++t)
        s.tick();
    EXPECT_EQ(s.totalSamples(), kCap);
    EXPECT_FALSE(s.wrapped());
    EXPECT_EQ(s.rowTick(0), 1u);
    s.tick();
    EXPECT_TRUE(s.wrapped());
    EXPECT_EQ(s.rowTick(0), 2u); // row 1 was overwritten
}

TEST(Sampler, ZeroCadenceOnlySamplesOnDemand)
{
    // A cadence past every tick of the run records only on demand;
    // cadence 0 is the default cadence, not "off".
    EXPECT_EQ(TimeSeriesSampler(cfg(0)).config().sampleEvery,
              SamplerConfig::kDefaultSampleEvery);
    TimeSeriesSampler s(cfg(UINT64_MAX));
    s.addColumn("c", [] { return 2.0; });
    EXPECT_FALSE(s.tick(1000));
    EXPECT_EQ(s.samples(), 0u);
    EXPECT_EQ(s.ticksUntilSample(), UINT64_MAX - 1000);
    s.sampleNow();
    EXPECT_EQ(s.samples(), 1u);
    EXPECT_EQ(s.rowTick(0), 1000u);
}

TEST(Sampler, CsvHeaderQuotesAwkwardColumnNames)
{
    TimeSeriesSampler s(cfg(1));
    s.addColumn("a,b", [] { return 0.0; });
    std::istringstream lines(s.renderCsv());
    std::string header;
    std::getline(lines, header);
    EXPECT_EQ(header, "t,interval,\"a,b\"");
}

TEST(Sampler, WriteCsvRoundTripsThroughDisk)
{
    TimeSeriesSampler s(cfg(2));
    s.addColumn("v", [] { return 1.25; });
    s.tick(6);
    const std::string path =
        testing::TempDir() + "xmig_obs_sampler_test.csv";
    writeArtifact(path, s.renderCsv(), "--samples-out");
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[512] = {};
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(std::string(buf, n), s.renderCsv());
}

} // namespace
} // namespace xmig::obs
