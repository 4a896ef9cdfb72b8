/**
 * @file
 * Migration-penalty break-even analysis (sections 2.4 and 4.2).
 *
 * For each benchmark where migration removes L2 misses, reports the
 * number of L2 misses removed per migration — execution migration
 * wins whenever P_mig (the migration penalty in L2-miss/L3-hit
 * units) is below that number. The paper works this out for 181.mcf
 * (~60). A stall-cycle model then translates the trade into
 * estimated speedups for several P_mig values. One sweep cell per
 * benchmark.
 */

#include "multicore/cost_model.hpp"
#include "paper.hpp"
#include "sim/quadcore.hpp"
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"

using namespace xmig;

std::string
xmig::paperPmig(const BenchOptions &opt)
{
    QuadcoreParams params;
    params.instructionsPerBenchmark = opt.instructions;
    params.seed = opt.seed;

    const std::vector<std::string> benches =
        benchmarksOr(opt, {"179.art", "181.mcf", "188.ammp", "256.bzip2",
                           "em3d", "health", "164.gzip"});

    const double pmigs[] = {5, 10, 20, 60, 100};

    const SweepSpec spec{benches.size(), [&](size_t i) {
        const QuadcoreRow r = runQuadcore(benches[i], params);
        MigrationTradeoff t;
        t.instructions = r.instructions;
        t.l2MissesBaseline = r.l2MissesBaseline;
        t.l2MissesMigration = r.l2Misses4x;
        t.migrations = r.migrations;

        SweepRow row{"", {r.name, ratio2(r.missRatio()),
                          ratio2(breakEvenPmig(t))}};
        for (double pmig : pmigs) {
            TimingParams tp;
            tp.pmig = pmig;
            row.cells.push_back(ratio2(estimatedSpeedup(t, tp)));
        }
        return RunResult{"", {row}};
    }};
    AsciiTable table({"benchmark", "ratio", "breakeven-Pmig",
                      "speedup@5", "speedup@10", "speedup@20",
                      "speedup@60", "speedup@100"});
    collateRows(runSweep(spec, opt.jobs), table);
    return table.render(formatString(
               "Break-even P_mig and modeled speedups (baseCPI=%.0f, "
               "L3-hit penalty=%.0f cycles); speedup > 1 means migration "
               "wins",
               kBaseCpi, kL3HitCycles)) +
           "\nPaper reference: 181.mcf removes ~60 L2 misses per "
           "migration, so P_mig < 60 wins.\n";
}
