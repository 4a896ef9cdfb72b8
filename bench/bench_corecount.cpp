/**
 * @file
 * Core-count scaling (section 6 extension).
 *
 * The paper shows 4-way splitting, notes the scheme "works also on
 * 2-core configurations", and conjectures it adapts to more cores.
 * This harness runs each benchmark on 1/2/4/8-core machines (same
 * 512-KB L2 per core, so total L2 = 0.5/1/2/4 MB) and reports
 * instructions per L2 miss and per migration.
 *
 * Expected shape: each benchmark starts benefiting once the total L2
 * crosses its working-set size — e.g. 181.mcf (~4 MB hot footprint)
 * gains little at 4 cores but much more at 8.
 *
 * One sweep cell per benchmark (xmig-swift): all four machines and
 * the workload stream live inside the cell, so --jobs N output is
 * bit-identical to the serial run.
 */

#include <cstdio>

#include "multicore/machine.hpp"
#include "sim/options.hpp"
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

int
main(int argc, char **argv)
{
    const BenchOptions opt =
        BenchOptions::parse(argc, argv, 12'000'000, 1'000'000);

    const std::vector<std::string> benches =
        opt.benchmarks.empty()
            ? std::vector<std::string>{"179.art", "181.mcf",
                                       "197.parser", "mst", "health"}
            : opt.benchmarks;

    SweepSpec spec;
    spec.cells = benches.size();
    spec.run = [&](size_t idx) {
        const std::string &name = benches[idx];
        // Run all four machines over one generated stream.
        MachineConfig c1, c2, c4, c8;
        c1.numCores = 1;
        c2.numCores = 2;
        c4.numCores = 4;
        c8.numCores = 8;
        // Section 3.5: the affinity cache should be proportional to
        // the total on-chip L2 capacity. The paper's 8k entries
        // cover 4 x 512 KB at 25% sampling; scale accordingly.
        c2.controller.affinityCache.entries = 4 * 1024;
        c4.controller.affinityCache.entries = 8 * 1024;
        c8.controller.affinityCache.entries = 16 * 1024;
        MigrationMachine m1(c1), m2(c2), m4(c4), m8(c8);
        TeeSink t12(m1, m2), t48(m4, m8), all(t12, t48);
        auto workload = makeWorkload(name);
        workload->run(all, opt.instructions, opt.seed);

        RunResult res;
        const MigrationMachine *machines[] = {&m1, &m2, &m4, &m8};
        for (const MigrationMachine *m : machines) {
            const auto &s = m->stats();
            char cores[8];
            std::snprintf(cores, sizeof(cores), "%u",
                          m->config().numCores);
            const double ratio = m1.stats().l2Misses == 0
                ? 1.0
                : static_cast<double>(s.l2Misses) /
                  static_cast<double>(m1.stats().l2Misses);
            res.rows.push_back({"",
                                {workload->info().name, cores,
                                 sizeLabel(m->config().numCores *
                                           m->config().l2Bytes),
                                 perEvent(s.instructions, s.l2Misses),
                                 ratio2(ratio),
                                 perEvent(s.instructions,
                                          s.migrations)}});
        }
        return res;
    };
    const std::vector<RunResult> results = runSweep(spec, opt.jobs);

    AsciiTable table({"benchmark", "cores", "totalL2", "instr/L2miss",
                      "ratio-vs-1core", "instr/migration"});
    collateRows(results, table);
    flushAtomically(table.render("Core-count scaling: L2 misses vs "
                                 "number of 512-KB L2 caches the "
                                 "working-set can spread over"),
                    stdout);
    return 0;
}
