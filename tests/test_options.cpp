/**
 * @file
 * Tests for the shared bench CLI options and the quad-core warm-up
 * support.
 */

#include <gtest/gtest.h>

#include "sim/options.hpp"
#include "sim/quadcore.hpp"

namespace xmig {
namespace {

BenchOptions
parse(std::vector<const char *> args,
      uint64_t defaultInstr = BenchOptions::kDefaultInstructions,
      uint64_t smokeInstr = BenchOptions::kDefaultInstructions,
      uint32_t reads = kCommonFlags)
{
    args.insert(args.begin(), "prog");
    return BenchOptions::parse(static_cast<int>(args.size()),
                               const_cast<char **>(args.data()),
                               defaultInstr, smokeInstr, reads);
}

/** parse() for a harness with its own 8 M budget and 2 M smoke budget. */
BenchOptions
parseHarness(std::vector<const char *> args)
{
    return parse(std::move(args), 8'000'000, 2'000'000);
}

TEST(BenchOptions, Defaults)
{
    const BenchOptions opt = parse({});
    EXPECT_EQ(opt.instructions, 20'000'000u);
    EXPECT_EQ(opt.warmup, 0u);
    EXPECT_EQ(opt.seed, 42u);
    EXPECT_TRUE(opt.benchmarks.empty());
    // A harness's own budget replaces the 20 M default.
    EXPECT_EQ(parseHarness({}).instructions, 8'000'000u);
}

// An explicit budget is exact, even when it equals the 20 M default:
// `--instr 20000000` must not read as "not given".
TEST(BenchOptions, ExplicitBudgetEqualToDefaultIsHonoured)
{
    EXPECT_EQ(parseHarness({"--instr", "20000000"}).instructions,
              20'000'000u);
    EXPECT_EQ(parseHarness({"--smoke", "--instr", "20000000"})
                  .instructions,
              20'000'000u);
}

TEST(BenchOptions, SmokePicksTheSmokeBudgetUnlessInstrIsGiven)
{
    EXPECT_EQ(parseHarness({"--smoke"}).instructions, 2'000'000u);
    // --instr wins whichever side of --smoke it stands on.
    EXPECT_EQ(parseHarness({"--smoke", "--instr", "5000000"})
                  .instructions,
              5'000'000u);
    EXPECT_EQ(parseHarness({"--instr", "5000000", "--smoke"})
                  .instructions,
              5'000'000u);
    EXPECT_TRUE(parseHarness({"--instr", "5000000", "--smoke"}).smoke);
}

TEST(BenchOptions, ParsesEveryFlag)
{
    const BenchOptions opt =
        parse({"--instr", "1000", "--warmup", "500", "--seed", "7",
               "--bench", "179.art", "--bench", "health"});
    EXPECT_EQ(opt.instructions, 1000u);
    EXPECT_EQ(opt.warmup, 500u);
    EXPECT_EQ(opt.seed, 7u);
    ASSERT_EQ(opt.benchmarks.size(), 2u);
    EXPECT_EQ(opt.benchmarks[0], "179.art");
    EXPECT_EQ(opt.benchmarks[1], "health");
}

TEST(BenchOptions, ParsesFaultPlan)
{
    const BenchOptions opt =
        parse({"--fault-plan", "seed=7;at=1000:core_off=2"});
    EXPECT_EQ(opt.faultPlan, "seed=7;at=1000:core_off=2");
}

TEST(BenchOptions, ParsesJobsAndSmoke)
{
    EXPECT_EQ(parse({}).jobs, 0u); // 0 = auto (one per host core)
    EXPECT_FALSE(parse({}).smoke);
    EXPECT_EQ(parse({"--jobs", "8"}).jobs, 8u);
    EXPECT_EQ(parse({"--jobs", "1"}).jobs, 1u);
    EXPECT_EQ(parse({"--jobs", "4096"}).jobs, JobPool::kMaxJobs);
    EXPECT_TRUE(parse({"--smoke"}).smoke);
}

// --jobs is the one input for the worker count: no environment
// variable sets it, and a malformed one is not even read.
TEST(BenchOptions, IgnoresJobsEnvironment)
{
    for (const char *value : {"3", "zero"}) {
        setenv("XMIG_JOBS", value, 1);
        EXPECT_EQ(parse({}).jobs, 0u) << value;
        EXPECT_EQ(parse({"--jobs", "5"}).jobs, 5u) << value;
    }
    unsetenv("XMIG_JOBS");
}

TEST(BenchOptions, TraceOutKeepsRequestedJobs)
{
    // The trace is rendered from the per-machine journal, so it places
    // no constraint on the sweep width: auto stays auto, 4 stays 4.
    EXPECT_EQ(parse({"--trace-out", "/tmp/t.json"}).jobs, 0u);
    const BenchOptions opt =
        parse({"--trace-out", "/tmp/t.json", "--jobs", "4"});
    EXPECT_EQ(opt.traceOut, "/tmp/t.json");
    EXPECT_EQ(opt.jobs, 4u);
}

TEST(BenchOptions, CsvDirTakesOneValue)
{
    const BenchOptions opt =
        parse({"--csv-dir", "out", "--smoke"},
              BenchOptions::kDefaultInstructions,
              BenchOptions::kDefaultInstructions,
              kCommonFlags | kFlagCsvDir);
    EXPECT_EQ(opt.csvOut, "out");
    EXPECT_TRUE(opt.smoke);
    EXPECT_EQ(parse({}).csvOut, "");
}

// XMIG_FATAL exits with status 1; each bad value must die with a
// message naming the flag instead of silently parsing as 0.
TEST(BenchOptionsDeathTest, RejectsNegativeCount)
{
    EXPECT_EXIT(parse({"--instr", "-5"}),
                ::testing::ExitedWithCode(1), "--instr");
}

TEST(BenchOptionsDeathTest, RejectsNonNumericCount)
{
    EXPECT_EXIT(parse({"--warmup", "lots"}),
                ::testing::ExitedWithCode(1), "--warmup");
}

TEST(BenchOptionsDeathTest, RejectsTrailingGarbage)
{
    EXPECT_EXIT(parse({"--sample-every", "100k"}),
                ::testing::ExitedWithCode(1), "--sample-every");
}

TEST(BenchOptionsDeathTest, RejectsMissingValue)
{
    EXPECT_EXIT(parse({"--instr"}), ::testing::ExitedWithCode(1),
                "requires a value");
}

TEST(BenchOptionsDeathTest, RejectsOverflowingCount)
{
    // 2^64 = 18446744073709551616 does not fit in uint64_t.
    EXPECT_EXIT(parse({"--instr", "18446744073709551616"}),
                ::testing::ExitedWithCode(1), "overflows");
}

// --instr is the one budget input: --scale is an unknown argument.
TEST(BenchOptionsDeathTest, RejectsScaleAsUnknownArgument)
{
    EXPECT_EXIT(parse({"--instr", "1000", "--scale", "2.5"}),
                ::testing::ExitedWithCode(1),
                "unknown argument '--scale'");
    for (const BenchFlagInfo &f : kBenchFlags)
        EXPECT_STRNE(f.name, "--scale");
}

TEST(BenchOptionsDeathTest, RejectsMalformedFaultPlan)
{
    EXPECT_EXIT(parse({"--fault-plan", "at=5:flip=bogus"}),
                ::testing::ExitedWithCode(1), "fault-plan");
}

// --jobs 0 is meaningless ("auto" is spelled by omitting the flag),
// and garbage or absurd counts must die loudly (xmig-iron strictness).
TEST(BenchOptionsDeathTest, RejectsBadJobs)
{
    EXPECT_EXIT(parse({"--jobs", "0"}),
                ::testing::ExitedWithCode(1), "--jobs");
    EXPECT_EXIT(parse({"--jobs", "many"}),
                ::testing::ExitedWithCode(1), "--jobs");
    EXPECT_EXIT(parse({"--jobs", "-2"}),
                ::testing::ExitedWithCode(1), "--jobs");
    // One past JobPool::kMaxJobs, the bound xmig_fuzz shares (parse
    // only: no pool is built).
    EXPECT_EXIT(parse({"--jobs", "4097"}),
                ::testing::ExitedWithCode(1), "--jobs.*1\\.\\.4096");
}

// A misspelt flag (--instrs for --instr) must not run the default
// budget; a flag outside the reader's set dies naming the reader.
TEST(BenchOptionsDeathTest, RejectsUnknownArgument)
{
    EXPECT_EXIT(parse({"--smoke", "--instrs", "5000"}),
                ::testing::ExitedWithCode(1), "unknown argument '--instrs'");
    EXPECT_EXIT(parse({"--csv-dir", "out"}),
                ::testing::ExitedWithCode(1), "prog does not read --csv-dir");
    EXPECT_EXIT(parse({"--smoke"}, BenchOptions::kDefaultInstructions,
                      BenchOptions::kDefaultInstructions, kFlagInstr),
                ::testing::ExitedWithCode(1),
                "prog does not read --smoke \\(it reads: --instr\\)");
    EXPECT_EXIT(parse({"--csv-dir"}, BenchOptions::kDefaultInstructions,
                      BenchOptions::kDefaultInstructions, kFlagCsvDir),
                ::testing::ExitedWithCode(1), "--csv-dir requires a value");
}

TEST(QuadcoreWarmup, ExcludesWarmupEvents)
{
    QuadcoreParams cold;
    cold.instructionsPerBenchmark = 2'000'000;
    const QuadcoreRow cold_row = runQuadcore("179.art", cold);

    QuadcoreParams warm = cold;
    warm.warmupInstructions = 4'000'000;
    const QuadcoreRow warm_row = runQuadcore("179.art", warm);

    // Counted instructions reflect only the measured window.
    EXPECT_NEAR(static_cast<double>(warm_row.instructions),
                static_cast<double>(cold_row.instructions),
                static_cast<double>(cold_row.instructions) * 0.15);
    // With the controller already trained, the measured window shows
    // far fewer migration-machine misses than the cold-start run.
    EXPECT_LT(warm_row.l2Misses4x, cold_row.l2Misses4x / 2);
    // The baseline (capacity-bound) miss rate barely changes.
    EXPECT_NEAR(static_cast<double>(warm_row.l2MissesBaseline),
                static_cast<double>(cold_row.l2MissesBaseline),
                static_cast<double>(cold_row.l2MissesBaseline) * 0.25);
}

} // namespace
} // namespace xmig
