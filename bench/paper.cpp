/**
 * @file
 * The experiment table and the driver around it (see paper.hpp).
 */

#include "paper.hpp"

#include <cstdio>

#include "sim/runner/sweep.hpp"
#include "util/logging.hpp"

namespace xmig {

namespace {

/** Budget flags: the experiment runs workloads for --instr each, its
 *  cells on --jobs workers. */
constexpr uint32_t kBudget = kFlagInstr | kFlagScale | kFlagSeed | kFlagJobs;

/** A budget experiment over the workloads --bench names. */
constexpr uint32_t kSweep = kBudget | kFlagBench;

const Experiment kExperiments[] = {
    {"table1", "Table 1: benchmark inventory and 16-KB L1 misses",
     20'000'000, 0, kSweep, paperTable1},
    {"table2", "Table 2: L2 misses, 1 core vs 4 cores with migration",
     20'000'000, 1'000'000, kCommonFlags & ~kFlagCsv, paperTable2},
    {"fig1", "Figure 1: migration mode vs throughput mode",
     8'000'000, 2'000'000,
     kSweep | kFlagSmoke | kFlagCsv | kFlagMetricsOut | kFlagTraceOut |
         kFlagJournalOut,
     paperFigure1},
    {"fig3", "Figure 3: affinity snapshots, Circular and HalfRandom",
     0, 0, kFlagJobs, paperFigure3},
    {"fig4_5", "Figures 4-5: p1 vs p4 LRU stack profiles", 20'000'000,
     0, kSweep, paperFigure45},
    {"rwindow", "Section 3.3: R-window size ablation", 0, 0, kFlagJobs,
     paperRWindow},
    {"init", "Section 3.3: initial-affinity ablation", 0, 0, kFlagJobs,
     paperInit},
    {"filter", "Section 3.4: transition-filter width ablation", 0, 0,
     kFlagJobs, paperFilter},
    {"sampling", "Section 3.5: working-set sampling ablation",
     10'000'000, 1'000'000, kSweep | kFlagSmoke, paperSampling},
    {"linesize", "Section 4.1: cache-line-size ablation", 10'000'000,
     1'000'000, kSweep | kFlagSmoke, paperLineSize},
    {"mechanism", "A_R, R-window and L2-filtering mechanism ablations",
     10'000'000, 1'000'000, kBudget | kFlagSmoke, paperMechanism},
    {"updatebus", "Section 2.3: update-bus bandwidth", 4'000'000, 0,
     kBudget, paperUpdateBus},
    {"timing", "Sections 2.2 and 2.4: migration penalty and IPC",
     12'000'000, 0, kSweep, paperTiming},
    {"pmig", "Sections 2.4 and 4.2: migration-penalty break-even",
     20'000'000, 0, kSweep, paperPmig},
    {"prefetch", "Section 6: stride prefetching vs migration",
     12'000'000, 0, kSweep, paperPrefetch},
    {"corecount", "Section 6: core-count scaling", 12'000'000,
     1'000'000, kSweep | kFlagSmoke, paperCoreCount},
    {"ptrfilter", "Section 6: pointer-load transition filtering",
     10'000'000, 0, kSweep, paperPtrFilter},
    {"l3", "Finite shared L3: on-chip vs off-chip traffic", 10'000'000,
     0, kSweep, paperL3},
    {"resilience", "Fault resilience: degradation and core-loss "
                   "recovery",
     8'000'000, 2'000'000, kSweep | kFlagSmoke | kFlagCsvDir,
     paperResilience},
};

/** Program names that select an experiment by argv[0]. */
const struct
{
    const char *program;
    const char *experiment;
} kAliases[] = {
    {"bench_table2_quadcore", "table2"},
    {"bench_figure1", "fig1"},
};

/** "20M", "0.5M": an instruction budget in millions. */
std::string
budgetLabel(uint64_t instr)
{
    return formatString("%gM", static_cast<double>(instr) / 1e6);
}

/** The table of experiments, printed when no experiment is named. */
std::string
listing()
{
    std::string out = "usage: xmig_paper EXPERIMENT [flags]\n\n";
    for (const Experiment &e : kExperiments) {
        std::string budget = "fixed size";
        if (e.instr != 0)
            budget = budgetLabel(e.instr) + " instr";
        if (e.smokeInstr != 0)
            budget += ", smoke " + budgetLabel(e.smokeInstr);
        out += formatString("%-11s %s (%s)\n", e.name,
                                    e.artifact, budget.c_str());
        out += "            reads: " + BenchOptions::flagNames(e.reads) +
               "\n";
    }
    return out;
}

} // namespace

std::span<const Experiment>
experiments()
{
    return kExperiments;
}

const Experiment *
findExperiment(std::string_view name)
{
    for (const Experiment &e : kExperiments) {
        if (name == e.name)
            return &e;
    }
    return nullptr;
}

std::string
runExperiment(const Experiment &exp, int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(
        argc, argv, exp.instr,
        exp.smokeInstr != 0 ? exp.smokeInstr : exp.instr, exp.reads,
        exp.name);
    return exp.run(opt);
}

int
paperMain(int argc, char **argv)
{
    std::string_view self = argv[0];
    self.remove_prefix(self.rfind('/') + 1); // npos + 1 == 0: no slash
    for (const auto &alias : kAliases) {
        if (self == alias.program) {
            flushAtomically(runExperiment(
                                *findExperiment(alias.experiment), argc,
                                argv),
                            stdout);
            return 0;
        }
    }
    if (argc < 2) {
        flushAtomically(listing(), stdout);
        return 0;
    }
    const Experiment *exp = findExperiment(argv[1]);
    if (exp == nullptr)
        XMIG_FATAL("unknown experiment '%s' (run xmig_paper with no "
                   "argument for the list)",
                   argv[1]);
    flushAtomically(runExperiment(*exp, argc - 1, argv + 1), stdout);
    return 0;
}

} // namespace xmig
