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
 */

#include "paper.hpp"
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

    AsciiTable table({"benchmark", "instr(M)", "IL1-miss(M)",
                      "DL1-miss(M)", "loads(M)", "stores(M)"});
    const auto millions = [](uint64_t v) {
        return formatString("%.2f", static_cast<double>(v) / 1e6);
    };
    std::string suite;
    for (const auto &name : benchmarksOr(opt, allWorkloadNames())) {
        const Table1Row row = runTable1(name, params);
        if (row.suite != suite) {
            suite = row.suite;
            table.addSection(suite);
        }
        table.addRow({row.name, millions(row.instructions),
                      millions(row.il1Misses), millions(row.dl1Misses),
                      millions(row.loads), millions(row.stores)});
    }
    return table.render("Table 1 reproduction: benchmarks, dynamic "
                        "instructions, 16KB L1 misses");
}
