/**
 * @file
 * Reproduces Table 1: the benchmark inventory — dynamic instruction
 * count and IL1/DL1 miss counts through 16-KB fully-associative LRU
 * L1 caches with 64-byte lines (loads and stores not distinguished).
 *
 * Counts are reported in millions, like the paper. Absolute numbers
 * differ from the paper's (different inputs, ~50x shorter runs); the
 * comparison point is each benchmark's *class*: instruction-miss
 * heavy (gcc, crafty, vortex), data-miss heavy (art, mcf, ammp), or
 * light (bh, twolf, ...).
 *
 * One sweep cell per benchmark; rows are sectioned by suite.
 */

#include "paper.hpp"
#include "sim/runner/sweep.hpp"
#include "sim/table1.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

std::string
xmig::paperTable1(const BenchOptions &opt)
{
    Table1Params params;
    params.instructionsPerBenchmark = opt.instructions;
    params.seed = opt.seed;

    const std::vector<std::string> names =
        benchmarksOr(opt, allWorkloadNames());
    const auto millions = [](uint64_t v) {
        return formatString("%.2f", static_cast<double>(v) / 1e6);
    };
    const SweepSpec spec{names.size(), [&](size_t i) {
        const Table1Row r = runTable1(names[i], params);
        return RunResult{
            "",
            {{r.suite,
              {r.name, millions(r.instructions), millions(r.il1Misses),
               millions(r.dl1Misses), millions(r.loads),
               millions(r.stores)}}}};
    }};
    AsciiTable table({"benchmark", "instr(M)", "IL1-miss(M)",
                      "DL1-miss(M)", "loads(M)", "stores(M)"});
    collateRows(runSweep(spec, opt.jobs), table);
    return table.render("Table 1 reproduction: benchmarks, dynamic "
                        "instructions, 16KB L1 misses");
}
