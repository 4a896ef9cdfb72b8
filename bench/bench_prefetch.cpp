/**
 * @file
 * Prefetching vs execution migration (section 6 extension).
 *
 * The paper's conclusion leaves open how the two combine: much of
 * the observed splittability comes from circular behavior that a
 * prefetcher also captures, but "prefetching into a larger cache
 * leaves more room for the unpredictable portion of the working-set".
 * This harness runs each benchmark under four machines — baseline,
 * baseline+stride-prefetch, migration, migration+prefetch — and
 * reports instructions per L2 miss for each, plus prefetch accuracy.
 *
 * Expected shape: array scanners (art, swim) are served by either
 * technique; pointer chasers (health, em3d, mcf) defeat the
 * prefetcher but still split; random programs (gzip) gain from
 * neither; and migration+prefetch together cover the union.
 */

#include <cstdio>

#include "multicore/machine.hpp"
#include "sim/options.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

int
main(int argc, char **argv)
{
    // 4 machines per benchmark.
    const BenchOptions opt = BenchOptions::parse(argc, argv, 12'000'000);

    const std::vector<std::string> benches =
        opt.benchmarks.empty()
            ? std::vector<std::string>{"179.art", "171.swim", "181.mcf",
                                       "188.ammp", "em3d", "health",
                                       "164.gzip"}
            : opt.benchmarks;

    AsciiTable table({"benchmark", "base", "base+pf", "mig", "mig+pf",
                      "pf-accuracy"});
    for (const auto &name : benches) {
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
        TeeSink t1(base, pf), t2(mig, migpf), all(t1, t2);
        auto workload = makeWorkload(name);
        workload->run(all, opt.instructions, opt.seed);

        const uint64_t instr = base.stats().instructions;
        const double accuracy = pf.stats().prefetchFills == 0
            ? 0.0
            : static_cast<double>(pf.stats().prefetchUseful) /
              static_cast<double>(pf.stats().prefetchFills);
        table.addRow({workload->info().name,
                      perEvent(instr, base.stats().l2Misses),
                      perEvent(instr, pf.stats().l2Misses),
                      perEvent(instr, mig.stats().l2Misses),
                      perEvent(instr, migpf.stats().l2Misses),
                      ratio2(accuracy)});
    }
    std::fputs(table.render("Instructions per L2 miss (higher is "
                            "better): baseline, stride prefetch "
                            "(degree 4), 4-core migration, and both")
                   .c_str(),
               stdout);
    return 0;
}
