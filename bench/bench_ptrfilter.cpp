/**
 * @file
 * Pointer-load filtering (section 6 extension).
 *
 * "One could decide to restrict the class of applications triggering
 * migrations by having the transition filter updated only on requests
 * coming from pointer loads." This harness compares the paper's
 * default controller against one with pointer-load filtering enabled:
 * linked-data-structure programs (mcf, health, bisort) keep their
 * behavior, while programs whose misses come from plain array or
 * random accesses (gzip, vpr, art) stop triggering migrations.
 */

#include <cstdio>

#include "sim/options.hpp"
#include "sim/quadcore.hpp"
#include "util/stats.hpp"

using namespace xmig;

int
main(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv, 10'000'000);

    const std::vector<std::string> benches =
        opt.benchmarks.empty()
            ? std::vector<std::string>{"181.mcf", "health", "bisort",
                                       "179.art", "164.gzip", "175.vpr"}
            : opt.benchmarks;

    AsciiTable table({"benchmark", "filter", "ratio", "migrations"});
    for (const auto &name : benches) {
        for (bool ptr_only : {false, true}) {
            QuadcoreParams params;
            params.instructionsPerBenchmark = opt.instructions;
            params.seed = opt.seed;
            params.machine.controller.pointerLoadFilter = ptr_only;
            const QuadcoreRow r = runQuadcore(name, params);
            char migs[24];
            std::snprintf(migs, sizeof(migs), "%llu",
                          (unsigned long long)r.migrations);
            table.addRow({r.name,
                          ptr_only ? "pointer loads only" : "all (paper)",
                          ratio2(r.missRatio()), migs});
        }
    }
    std::fputs(table.render("Transition filter updated on all L2 "
                            "misses vs only pointer-load misses")
                   .c_str(),
               stdout);
    return 0;
}
