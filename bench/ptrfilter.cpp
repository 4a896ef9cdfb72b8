/**
 * @file
 * Pointer-load filtering (section 6 extension).
 *
 * "One could decide to restrict the class of applications triggering
 * migrations by having the transition filter updated only on requests
 * coming from pointer loads." This experiment compares the paper's
 * default controller against one with pointer-load filtering enabled:
 * linked-data-structure programs (mcf, health, bisort) keep their
 * behavior, while programs whose misses come from plain array or
 * random accesses (gzip, vpr, art) stop triggering migrations.
 */

#include "paper.hpp"
#include "sim/quadcore.hpp"
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"

using namespace xmig;

std::string
xmig::paperPtrFilter(const BenchOptions &opt)
{
    const std::vector<std::string> benches = benchmarksOr(
        opt, {"181.mcf", "health", "bisort", "179.art", "164.gzip",
              "175.vpr"});

    // One sweep cell per (benchmark, filter): the paper's filter at
    // even cells, pointer loads only at odd ones.
    const SweepSpec spec{benches.size() * 2, [&](size_t i) {
        const bool ptr_only = i % 2 == 1;
        QuadcoreParams params;
        params.instructionsPerBenchmark = opt.instructions;
        params.seed = opt.seed;
        params.machine.controller.pointerLoadFilter = ptr_only;
        const QuadcoreRow r = runQuadcore(benches[i / 2], params);
        return RunResult{
            "",
            {{"",
              {r.name, ptr_only ? "pointer loads only" : "all (paper)",
               ratio2(r.missRatio()),
               formatString("%llu",
                            (unsigned long long)r.migrations)}}}};
    }};
    AsciiTable table({"benchmark", "filter", "ratio", "migrations"});
    collateRows(runSweep(spec, opt.jobs), table);
    return table.render("Transition filter updated on all L2 misses "
                        "vs only pointer-load misses");
}
