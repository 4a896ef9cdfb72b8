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
 *
 * One sweep cell per (benchmark, line size) pair (xmig-swift); rows
 * collate in sweep order, so --jobs N output is bit-identical to the
 * serial run.
 */

#include <cstdio>

#include "sim/options.hpp"
#include "sim/runner/sweep.hpp"
#include "sim/stack_profile.hpp"
#include "util/stats.hpp"

using namespace xmig;

int
main(int argc, char **argv)
{
    const BenchOptions opt =
        BenchOptions::parse(argc, argv, 10'000'000, 1'000'000);

    const std::vector<std::string> benches =
        opt.benchmarks.empty()
            ? std::vector<std::string>{"179.art", "188.ammp", "health"}
            : opt.benchmarks;
    const uint64_t lines[] = {32, 64, 128, 256};
    constexpr size_t kNumLines = 4;

    SweepSpec spec;
    spec.cells = benches.size() * kNumLines;
    spec.run = [&](size_t i) {
        const std::string &name = benches[i / kNumLines];
        const uint64_t line = lines[i % kNumLines];
        StackProfileParams params;
        params.instructionsPerBenchmark = opt.instructions;
        params.seed = opt.seed;
        params.lineBytes = line;
        const StackProfileResult r = runStackProfile(name, params);
        char gap[16];
        std::snprintf(gap, sizeof(gap), "%.3f", r.maxGap());
        RunResult res;
        res.rows.push_back(
            {"",
             {r.name, sizeLabel(line), gap,
              frequency(r.transitions, r.stackAccesses),
              sizeLabel(r.footprintLines * line)}});
        return res;
    };
    const std::vector<RunResult> results = runSweep(spec, opt.jobs);

    AsciiTable table({"benchmark", "line", "max(p1-p4)", "trans-freq",
                      "footprint"});
    collateRows(results, table);
    flushAtomically(table.render("Line-size ablation: splittability "
                                 "gap p1-p4 vs line size"),
                    stdout);
    return 0;
}
