/**
 * @file
 * Prefetching vs execution migration (section 6 extension).
 *
 * The paper's conclusion leaves open how the two combine: much of
 * the observed splittability comes from circular behavior that a
 * prefetcher also captures, but "prefetching into a larger cache
 * leaves more room for the unpredictable portion of the working-set".
 * This experiment runs each benchmark under four machines — baseline,
 * baseline+stride-prefetch, migration, migration+prefetch — and
 * reports instructions per L2 miss for each, plus prefetch accuracy.
 *
 * Expected shape: array scanners (art, swim) are served by either
 * technique; pointer chasers (health, em3d, mcf) defeat the
 * prefetcher but still split; random programs (gzip) gain from
 * neither; and migration+prefetch together cover the union.
 *
 * One sweep cell per benchmark: all four machines share the cell's
 * one workload stream.
 */

#include "multicore/feed.hpp"
#include "multicore/machine.hpp"
#include "paper.hpp"
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

std::string
xmig::paperPrefetch(const BenchOptions &opt)
{
    const std::vector<std::string> benches =
        benchmarksOr(opt, {"179.art", "171.swim", "181.mcf", "188.ammp",
                           "em3d", "health", "164.gzip"});

    const SweepSpec spec{benches.size(), [&](size_t i) {
        MachineConfig base_cfg;
        base_cfg.numCores = 1;
        MachineConfig pf_cfg = base_cfg;
        pf_cfg.prefetch.kind = PrefetchKind::Stride;
        pf_cfg.prefetch.degree = 4;
        MachineConfig mig_cfg; // 4-core paper machine
        MachineConfig migpf_cfg = mig_cfg;
        migpf_cfg.prefetch = pf_cfg.prefetch;

        MigrationMachine base(base_cfg), pf(pf_cfg), mig(mig_cfg),
            migpf(migpf_cfg);
        auto workload = makeWorkload(benches[i]);
        ChunkFeed({&base, &pf, &mig, &migpf})
            .run(*workload, opt.instructions, opt.seed);

        const uint64_t instr = base.stats().instructions;
        const double accuracy = pf.stats().prefetchFills == 0
            ? 0.0
            : static_cast<double>(pf.stats().prefetchUseful) /
              static_cast<double>(pf.stats().prefetchFills);
        return RunResult{"",
                         {{"",
                           {workload->info().name,
                            perEvent(instr, base.stats().l2Misses),
                            perEvent(instr, pf.stats().l2Misses),
                            perEvent(instr, mig.stats().l2Misses),
                            perEvent(instr, migpf.stats().l2Misses),
                            ratio2(accuracy)}}}};
    }};
    AsciiTable table({"benchmark", "base", "base+pf", "mig", "mig+pf",
                      "pf-accuracy"});
    collateRows(runSweep(spec, opt.jobs), table);
    return table.render("Instructions per L2 miss (higher is better): "
                        "baseline, stride prefetch (degree 4), 4-core "
                        "migration, and both");
}
