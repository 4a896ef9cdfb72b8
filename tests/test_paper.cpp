/**
 * @file
 * The paper driver (bench/paper.hpp): every experiment reproduces the
 * bytes its standalone harness printed before the driver existed,
 * reads exactly the flags it declares, and dies, naming the flag and
 * the experiment, on any other.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "paper.hpp"
#include "util/contracts.hpp"

namespace xmig {
namespace {

/** Run experiment args[0] with flags args[1..]; returns its stdout. */
std::string
run(std::vector<std::string> args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return runExperiment(*findExperiment(args[0]),
                         static_cast<int>(argv.size()), argv.data());
}

/** paperMain() on `args` (args[0] is the program name). */
int
mainOf(std::vector<std::string> args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return paperMain(static_cast<int>(argv.size()), argv.data());
}

/** FNV-1a 64 over the bytes of `s`. */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A fresh directory under the test's temporary directory. */
std::string
freshDir()
{
    std::string tmpl = testing::TempDir() + "xmig_paper_XXXXXX";
    EXPECT_NE(mkdtemp(tmpl.data()), nullptr);
    return tmpl;
}

/**
 * One golden run: the experiment at a tiny budget (and a --bench
 * subset) where it reads them, at its only size where it does not.
 * Digests are FNV-1a 64 of stdout and of each CSV file, recorded from
 * the standalone harness binaries the driver replaced.
 */
struct Golden
{
    std::vector<std::string> args;
    uint64_t stdoutDigest;
    std::vector<std::pair<const char *, uint64_t>> csvDigests;
};

const std::vector<Golden> kGolden = {
    {{"table1", "--instr", "1000000", "--bench", "179.art", "--bench",
      "em3d"},
     0xd024dae5d46e2689ull, {}},
    {{"table2", "--instr", "1000000", "--bench", "179.art", "--bench",
      "181.mcf", "--warmup", "200000", "--fault-plan",
      "seed=5;rate=2e-5:flip=oe;rate=1e-3:mig_drop", "--jobs", "2"},
     0xf5703987c35ba759ull, {}},
    {{"fig1", "--instr", "1000000", "--bench", "art+mcf", "--jobs", "2"},
     0x49302f55613a3b44ull, {{"figure1.csv", 0x410b986fd8a77f14ull}}},
    {{"fig3", "--jobs", "4"}, 0x4cbacf342725ccd2ull, {}},
    {{"fig4_5", "--instr", "1000000", "--bench", "179.art", "--bench",
      "bh", "--jobs", "2"},
     0xd560fcaa333a055dull, {}},
    {{"rwindow", "--jobs", "4"}, 0x39ce8511ad5dbc9full, {}},
    {{"init", "--jobs", "4"}, 0x6a20c77fb1b2fd08ull, {}},
    {{"filter", "--jobs", "4"}, 0xf3ba8cbb76e84ee6ull, {}},
    {{"sampling", "--instr", "1000000", "--bench", "179.art", "--jobs",
      "2"},
     0x8331664ae5f306f1ull, {}},
    {{"linesize", "--instr", "1000000", "--bench", "health", "--jobs",
      "2"},
     0xcc5777918249612dull, {}},
    {{"mechanism", "--instr", "1000000", "--jobs", "4"},
     0x9188dbaae9b90391ull, {}},
    {{"updatebus", "--instr", "1000000"}, 0x6caaa2a2022cae64ull, {}},
    {{"timing", "--instr", "1000000", "--bench", "179.art"},
     0x64a7c0a5401d1dfeull, {}},
    {{"pmig", "--instr", "1000000", "--bench", "181.mcf"},
     0xa08697993afdfb11ull, {}},
    {{"prefetch", "--instr", "1000000", "--bench", "171.swim"},
     0xee8ff31569d60aa6ull, {}},
    {{"corecount", "--instr", "1000000", "--bench", "179.art", "--jobs",
      "2"},
     0x0f659ee6e8d7c71dull, {}},
    {{"ptrfilter", "--instr", "1000000", "--bench", "181.mcf"},
     0xc3c974a81893ebbfull, {}},
    {{"l3", "--instr", "1000000", "--bench", "179.art"},
     0x8ed4f75b6d65a600ull, {}},
    {{"resilience", "--instr", "1000000", "--smoke", "--jobs", "2"},
     0x5503d3de806d51adull,
     {{"degradation.csv", 0x17d95987d46fab6cull},
      {"recovery.csv", 0x558010856f697032ull}}},
};

TEST(PaperGolden, EveryExperimentMatchesItsHarnessDigests)
{
    unsetenv("XMIG_JOBS");
    std::set<std::string> covered;
    for (const Golden &g : kGolden) {
        SCOPED_TRACE(g.args[0]);
        covered.insert(g.args[0]);
        // The paranoid engine audits check every reference of these
        // fixed 1.5 M- and 13 M-reference splitter sweeps, which then
        // take minutes; the off and cheap builds pin them.
        if (kAuditParanoid && (g.args[0] == "rwindow" || g.args[0] == "init"))
            continue;
        const std::string dir = freshDir();
        std::vector<std::string> args = g.args;
        if (g.args[0] == "fig1")
            args.insert(args.end(), {"--csv", dir + "/figure1.csv"});
        if (g.args[0] == "resilience")
            args.insert(args.end(), {"--csv-dir", dir});
        EXPECT_EQ(fnv1a(run(args)), g.stdoutDigest);
        for (const auto &[file, digest] : g.csvDigests) {
            const std::string path = dir + "/" + file;
            EXPECT_EQ(fnv1a(slurp(path)), digest) << file;
            std::remove(path.c_str());
        }
        rmdir(dir.c_str());
    }
    for (const Experiment &e : experiments())
        EXPECT_TRUE(covered.count(e.name)) << e.name << " has no golden";
}

/** A valid value for each flag, in kBenchFlags order. */
const char *
sampleValue(BenchFlag flag)
{
    switch (flag) {
      case kFlagInstr: return "1000";
      case kFlagScale: return "2";
      case kFlagBench: return "179.art";
      case kFlagSeed: return "7";
      case kFlagWarmup: return "5";
      case kFlagFaultPlan: return "at=1:core_off=1";
      case kFlagJobs: return "2";
      case kFlagSmoke: return nullptr;
      case kFlagCsv: return "out.csv";
      case kFlagMetricsOut: return "m.jsonl";
      case kFlagSamplesOut: return "s.csv";
      case kFlagTraceOut: return "t.json";
      case kFlagJournalOut: return "j.jsonl";
      case kFlagSampleEvery: return "100";
      case kFlagCsvDir: return "out";
    }
    return nullptr;
}

TEST(PaperFlags, EachExperimentAcceptsExactlyTheFlagsItReads)
{
    for (const Experiment &e : experiments()) {
        for (const BenchFlagInfo &f : kBenchFlags) {
            SCOPED_TRACE(std::string(e.name) + " " + f.name);
            std::vector<std::string> args = {e.name, f.name};
            if (const char *v = sampleValue(f.bit))
                args.emplace_back(v);
            std::vector<char *> argv;
            for (std::string &a : args)
                argv.push_back(a.data());
            const auto parse = [&] {
                return BenchOptions::parse(
                    static_cast<int>(argv.size()), argv.data(), e.instr,
                    e.smokeInstr != 0 ? e.smokeInstr : e.instr, e.reads,
                    e.name);
            };
            if ((e.reads & f.bit) != 0) {
                parse();
            } else {
                EXPECT_EXIT(parse(), ::testing::ExitedWithCode(1),
                            std::string(e.name) + " does not read " +
                                f.name);
            }
        }
    }
}

TEST(PaperFlags, BudgetsMatchTheBudgetFlags)
{
    for (const Experiment &e : experiments()) {
        SCOPED_TRACE(e.name);
        // A fixed-size experiment takes no budget flag; a budget
        // experiment takes --instr, --scale and --seed together.
        const uint32_t budget = kFlagInstr | kFlagScale | kFlagSeed;
        EXPECT_EQ(e.instr != 0, (e.reads & budget) == budget);
        EXPECT_EQ(e.instr == 0, (e.reads & budget) == 0);
        // --smoke is read exactly where it picks a smaller budget.
        EXPECT_EQ(e.smokeInstr != 0, (e.reads & kFlagSmoke) != 0);
        if (e.smokeInstr != 0) {
            EXPECT_LT(e.smokeInstr, e.instr);
        }
    }
}

TEST(PaperDriver, NoArgumentListsEveryExperiment)
{
    testing::internal::CaptureStdout();
    EXPECT_EQ(mainOf({"xmig_paper"}), 0);
    const std::string listing = testing::internal::GetCapturedStdout();
    for (const Experiment &e : experiments()) {
        EXPECT_NE(listing.find(std::string(e.name) + " "),
                  std::string::npos)
            << e.name;
        EXPECT_NE(listing.find(e.artifact), std::string::npos) << e.name;
    }
}

TEST(PaperDriver, AliasRunsItsExperiment)
{
    unsetenv("XMIG_JOBS");
    const std::vector<std::string> flags = {"--instr", "200000", "--bench",
                                            "art+mcf", "--jobs", "1"};
    std::vector<std::string> alias = {"some/dir/bench_figure1"};
    alias.insert(alias.end(), flags.begin(), flags.end());
    testing::internal::CaptureStdout();
    EXPECT_EQ(mainOf(alias), 0);
    const std::string out = testing::internal::GetCapturedStdout();
    std::vector<std::string> args = {"fig1"};
    args.insert(args.end(), flags.begin(), flags.end());
    EXPECT_EQ(out, run(args));
}

TEST(PaperDriverDeathTest, RejectsAFlagTheExperimentDoesNotRead)
{
    EXPECT_EXIT(mainOf({"xmig_paper", "fig3", "--instr", "1000"}),
                ::testing::ExitedWithCode(1), "fig3 does not read --instr");
    EXPECT_EXIT(mainOf({"bench_figure1", "--samples-out", "s.csv"}),
                ::testing::ExitedWithCode(1),
                "fig1 does not read --samples-out");
}

TEST(PaperDriverDeathTest, RejectsAnUnknownExperiment)
{
    EXPECT_EXIT(mainOf({"xmig_paper", "table3"}),
                ::testing::ExitedWithCode(1),
                "unknown experiment 'table3'");
}

TEST(PaperDriverDeathTest, ResilienceDiesOnAnUnwritableCsvDir)
{
    EXPECT_EXIT(run({"resilience", "--instr", "100000", "--smoke",
                     "--csv-dir", "/nonexistent/dir"}),
                ::testing::ExitedWithCode(1),
                "cannot open --csv-dir output "
                "'/nonexistent/dir/degradation.csv'");
}

TEST(PaperDriverDeathTest, Table2DiesOnAnUnwritableMetricsOut)
{
    EXPECT_EXIT(run({"table2", "--bench", "179.art", "--instr", "20000",
                     "--jobs", "1", "--metrics-out",
                     "/nonexistent/m.jsonl"}),
                ::testing::ExitedWithCode(1),
                "cannot open --metrics-out output '/nonexistent/m.jsonl'");
}

TEST(PaperDriverDeathTest, Table2DiesOnAnUnwritableSamplesOut)
{
    EXPECT_EXIT(run({"table2", "--bench", "179.art", "--instr", "20000",
                     "--jobs", "1", "--sample-every", "1000",
                     "--samples-out", "/nonexistent/s.csv"}),
                ::testing::ExitedWithCode(1),
                "cannot open --samples-out output '/nonexistent/s.csv'");
}

TEST(PaperDriverDeathTest, ResilienceRejectsASecondBench)
{
    EXPECT_EXIT(run({"resilience", "--bench", "179.art", "--bench",
                     "181.mcf"}),
                ::testing::ExitedWithCode(1),
                "resilience runs one benchmark");
}

} // namespace
} // namespace xmig
