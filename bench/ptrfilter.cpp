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

#include "multicore/feed.hpp"
#include "multicore/machine.hpp"
#include "paper.hpp"
#include "sim/quadcore.hpp"
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

std::string
xmig::paperPtrFilter(const BenchOptions &opt)
{
    const std::vector<std::string> benches = benchmarksOr(
        opt, {"181.mcf", "health", "bisort", "179.art", "164.gzip",
              "175.vpr"});

    // One sweep cell per benchmark. The 1-core baseline has no
    // migration controller, so the filter cannot change it: one
    // stream drives it beside a 4-core machine with each filter.
    const SweepSpec spec{benches.size(), [&](size_t i) {
        MachineConfig base_cfg;
        base_cfg.numCores = 1;
        const MachineConfig paper_cfg;
        MachineConfig ptr_cfg;
        ptr_cfg.controller.pointerLoadFilter = true;

        MigrationMachine base(base_cfg), paper(paper_cfg), ptr(ptr_cfg);
        auto workload = makeWorkload(benches[i]);
        ChunkFeed({&base, &paper, &ptr})
            .run(*workload, opt.instructions, opt.seed);

        RunResult res;
        auto row = [&](const char *filter, const MachineStats &s) {
            QuadcoreRow r;
            r.l2MissesBaseline = base.stats().l2Misses;
            r.l2Misses4x = s.l2Misses;
            res.rows.push_back(
                {"",
                 {workload->info().name, filter, ratio2(r.missRatio()),
                  formatString("%llu",
                               (unsigned long long)s.migrations)}});
        };
        row("all (paper)", paper.stats());
        row("pointer loads only", ptr.stats());
        return res;
    }};
    AsciiTable table({"benchmark", "filter", "ratio", "migrations"});
    collateRows(runSweep(spec, opt.jobs), table);
    return table.render("Transition filter updated on all L2 misses "
                        "vs only pointer-load misses");
}
