/**
 * @file
 * Cache-line-size ablation (end of section 4.1).
 *
 * The paper observes that splittability is less pronounced with
 * larger lines: merging nodes of the reference graph (larger lines)
 * can only increase the minimum cut. This bench runs the Figures 4/5
 * profile experiment at 32/64/128/256-byte lines on representative
 * splittable benchmarks and reports the p1-p4 gap and the transition
 * frequency.
 * One sweep cell per (benchmark, line size) pair.
 */

#include "paper.hpp"
#include "sim/runner/sweep.hpp"
#include "sim/stack_profile.hpp"
#include "util/stats.hpp"

using namespace xmig;

std::string
xmig::paperLineSize(const BenchOptions &opt)
{
    const std::vector<std::string> benches =
        benchmarksOr(opt, {"179.art", "188.ammp", "health"});
    const uint64_t lines[] = {32, 64, 128, 256};
    constexpr size_t kNumLines = 4;

    const SweepSpec spec{benches.size() * kNumLines, [&](size_t i) {
        const std::string &name = benches[i / kNumLines];
        const uint64_t line = lines[i % kNumLines];
        StackProfileParams params;
        params.instructionsPerBenchmark = opt.instructions;
        params.seed = opt.seed;
        params.lineBytes = line;
        const StackProfileResult r = runStackProfile(name, params);
        return RunResult{"",
                         {{"",
                           {r.name, sizeLabel(line),
                            formatString("%.3f", r.maxGap()),
                            frequency(r.transitions, r.stackAccesses),
                            sizeLabel(r.footprintLines * line)}}}};
    }};
    AsciiTable table({"benchmark", "line", "max(p1-p4)", "trans-freq",
                      "footprint"});
    collateRows(runSweep(spec, opt.jobs), table);
    return table.render("Line-size ablation: splittability gap p1-p4 "
                        "vs line size");
}
