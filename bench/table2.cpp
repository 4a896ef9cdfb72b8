/**
 * @file
 * Reproduces Table 2: the 4-core machine with 512-KB L2 caches.
 *
 * Columns, as in the paper, are instructions per event (higher is
 * better): L1 miss, L2 miss (single-core baseline), 4xL2 miss (four
 * cores with execution migration), the L2-miss ratio (< 1 means
 * migration removed L2 misses), and migrations. The final column is
 * the paper's measured ratio for reference.
 *
 * One sweep cell per benchmark. --smoke selects a 6-benchmark subset
 * at 1M instructions (CI and the parallel-determinism test).
 */

#include <map>
#include <memory>

#include "paper.hpp"
#include "sim/observe.hpp"
#include "sim/quadcore.hpp"
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

namespace {

/** Paper Table 2 "ratio" column, for side-by-side comparison. */
const std::map<std::string, double> kPaperRatio = {
    {"164.gzip", 1.01}, {"171.swim", 1.00}, {"172.mgrid", 1.00},
    {"175.vpr", 1.60},  {"176.gcc", 0.95},  {"179.art", 0.03},
    {"181.mcf", 0.67},  {"186.crafty", 1.13}, {"188.ammp", 0.17},
    {"197.parser", 1.00}, {"255.vortex", 1.10}, {"256.bzip2", 0.35},
    {"300.twolf", 1.00}, {"bh", 2.16}, {"bisort", 1.08},
    {"em3d", 0.14}, {"health", 0.14}, {"mst", 1.00},
};

/** --smoke subset: a splittable/neutral mix that runs in seconds. */
const std::vector<std::string> kSmokeBenches = {
    "164.gzip", "179.art", "181.mcf", "188.ammp", "em3d", "health",
};

} // namespace

std::string
xmig::paperTable2(const BenchOptions &opt)
{
    QuadcoreParams params;
    params.instructionsPerBenchmark = opt.instructions;
    params.warmupInstructions = opt.warmup;
    params.seed = opt.seed;
    // Faults apply to the migration machine only; the single-core
    // baseline stays a clean reference (see runQuadcore).
    params.machine.faultPlan = opt.faultPlan;

    const std::vector<std::string> names =
        benchmarksOr(opt, opt.smoke ? kSmokeBenches : allWorkloadNames());

    // xmig-scope outputs observe the first selected benchmark (one
    // registry per run; see sim/observe.hpp).
    std::unique_ptr<RunObservatory> observatory;
    if (opt.observing())
        observatory = std::make_unique<RunObservatory>(opt);

    const SweepSpec spec{names.size(), [&](size_t i) {
        const QuadcoreRow r =
            runQuadcore(names[i], params,
                        i == 0 ? observatory.get() : nullptr);
        const auto paper = kPaperRatio.find(r.name);
        return RunResult{
            "",
            {{r.suite,
              {r.name, perEvent(r.instructions, r.l1Misses),
               perEvent(r.instructions, r.l2MissesBaseline),
               perEvent(r.instructions, r.l2Misses4x),
               ratio2(r.missRatio()),
               perEvent(r.instructions, r.migrations),
               paper == kPaperRatio.end() ? "-"
                                          : ratio2(paper->second)}}}};
    }};
    AsciiTable table({"benchmark", "L1miss", "L2miss", "4xL2miss",
                      "ratio", "migration", "paper-ratio"});
    collateRows(runSweep(spec, opt.jobs), table);
    return table.render("Table 2 reproduction: instructions per event "
                        "(higher is better); ratio < 1 means migration "
                        "removed L2 misses") +
           "\nNotes: 16KB 4-way L1s (WT/NWA DL1), 512KB 4-way "
           "skewed L2 per core,\n8k-entry affinity cache, 25% "
           "sampling, 18-bit filters, L2 filtering.\n";
}
