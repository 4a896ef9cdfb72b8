/**
 * @file
 * Reproduces Figures 4 and 5: LRU stack profiles p1(x) (single stack,
 * "normal") and p4(x) (four affinity-split stacks, "split") for every
 * benchmark, for cache sizes 16 KB .. 16 MB, plus the transition
 * frequency printed on each graph.
 *
 * A benchmark is "splittable" when p4 falls clearly below p1 over
 * some size range (paper: art, ammp, bh, health, em3d, mcf, ...);
 * non-splittable programs (gzip, vpr, parser, bisort) show p1 == p4.
 *
 * One sweep cell per benchmark: each cell returns its figure block
 * plus its summary-table row.
 */

#include "paper.hpp"
#include "sim/runner/sweep.hpp"
#include "sim/stack_profile.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

std::string
xmig::paperFigure45(const BenchOptions &opt)
{
    StackProfileParams params;
    params.instructionsPerBenchmark = opt.instructions;
    params.seed = opt.seed;

    const std::vector<std::string> names =
        benchmarksOr(opt, allWorkloadNames());

    const SweepSpec spec{names.size(), [&](size_t i) {
        const StackProfileResult r = runStackProfile(names[i], params);
        SeriesWriter series("size", {"normal_p1", "split_p4"});
        for (size_t s = 0; s < r.plotSizes.size(); ++s) {
            series.addPoint(sizeLabel(r.plotSizes[s]),
                            {r.p1[s], r.p4[s]});
        }
        return RunResult{
            formatString("\n== %s  (trans: %.4f) ==\n", r.name.c_str(),
                         r.transitionFrequency) +
                series.render(),
            {{"",
              {r.name,
               formatString("%.2f",
                            static_cast<double>(r.stackAccesses) / 1e6),
               frequency(r.transitions, r.stackAccesses),
               sizeLabel(r.footprintLines * 64),
               formatString("%.3f", r.maxGap()),
               r.maxGap() > 0.15 ? "yes" : "no"}}}};
    }};
    const std::vector<RunResult> results = runSweep(spec, opt.jobs);

    std::string out =
        "Figures 4-5 reproduction: p1 (normal) vs p4 (split) "
        "LRU stack profiles\n"
        "(fraction of L1-filtered refs with stack depth > "
        "cache size; 20-bit filters,\n |R_X|=128, |R_Y|=64, "
        "unlimited affinity cache)\n";
    out += collateText(results);
    out += "\n";
    AsciiTable summary({"benchmark", "refs(M)", "trans-freq",
                        "footprint", "max(p1-p4)", "splittable?"});
    collateRows(results, summary);
    out += summary.render("Splittability summary");
    return out;
}
