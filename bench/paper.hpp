/**
 * @file
 * The paper driver: one table of experiments, one per artifact of the
 * paper (Table 1, Table 2, Figures 1, 3 and 4/5, the section 3.3-3.5
 * ablations and the section 2 and 6 studies).
 *
 * Each experiment names the common flags it reads (sim/options.hpp);
 * the driver parses its command line with exactly that set, so a flag
 * the experiment would ignore is fatal and named. An experiment's run
 * function returns its stdout text and writes its file artifacts
 * through writeArtifact(); the driver flushes the text in one piece.
 * Every experiment reads --jobs and runs its cells through runSweep()
 * (sim/runner/sweep.hpp): each cell builds its own machines, streams
 * and RNGs, and results are collated in cell order, so the output is
 * byte-identical at any --jobs (docs/parallelism.md).
 *
 *   xmig_paper                 print the table of experiments
 *   xmig_paper NAME [flags]    run experiment NAME
 *
 * `bench_table2_quadcore` and `bench_figure1` are the same program
 * under another name: argv[0] selects `table2` and `fig1`.
 */

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/options.hpp"
#include "util/artifact.hpp"
#include "util/logging.hpp"

namespace xmig {

/** One paper artifact the driver can reproduce. */
struct Experiment
{
    const char *name;     ///< driver key, e.g. "table2"
    const char *artifact; ///< one-line paper artifact label
    /** Default budget per benchmark; 0 = fixed size (no --instr). */
    uint64_t instr;
    /** Budget under --smoke; 0 = no smoke budget (no --smoke). */
    uint64_t smokeInstr;
    uint32_t reads; ///< BenchFlag bits the experiment reads
    std::string (*run)(const BenchOptions &opt); ///< returns stdout
};

/** Every experiment, in the order the driver lists them. */
std::span<const Experiment> experiments();

/** The experiment named `name`, or nullptr. */
const Experiment *findExperiment(std::string_view name);

/**
 * Parse argv[1..argc) with `exp`'s flag set and budgets and run it;
 * returns its stdout text. argv[0] is not read.
 */
std::string runExperiment(const Experiment &exp, int argc, char **argv);

/** The driver's main(): dispatch on argv[0], else on argv[1]. */
int paperMain(int argc, char **argv);

/** printf into a std::string. */
using detail::formatString;

/** The workloads --bench named, or `defaults` without --bench. */
inline std::vector<std::string>
benchmarksOr(const BenchOptions &opt, std::vector<std::string> defaults)
{
    return opt.benchmarks.empty() ? defaults : opt.benchmarks;
}

// Run functions, one per experiment source file.
std::string paperTable1(const BenchOptions &opt);
std::string paperTable2(const BenchOptions &opt);
std::string paperFigure1(const BenchOptions &opt);
std::string paperFigure3(const BenchOptions &opt);
std::string paperFigure45(const BenchOptions &opt);
std::string paperRWindow(const BenchOptions &opt);
std::string paperFilter(const BenchOptions &opt);
std::string paperInit(const BenchOptions &opt);
std::string paperSampling(const BenchOptions &opt);
std::string paperLineSize(const BenchOptions &opt);
std::string paperMechanism(const BenchOptions &opt);
std::string paperUpdateBus(const BenchOptions &opt);
std::string paperPmig(const BenchOptions &opt);
std::string paperTiming(const BenchOptions &opt);
std::string paperPrefetch(const BenchOptions &opt);
std::string paperCoreCount(const BenchOptions &opt);
std::string paperPtrFilter(const BenchOptions &opt);
std::string paperL3(const BenchOptions &opt);
std::string paperResilience(const BenchOptions &opt);

} // namespace xmig
