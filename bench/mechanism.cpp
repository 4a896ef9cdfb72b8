/**
 * @file
 * Mechanism ablations beyond the paper's reported configurations:
 *
 *  - A_R maintenance: the literal Figure-2 register recurrence vs the
 *    exact Definition-1 sum (see ArKind in core/engine.hpp);
 *  - R-window organization: hardware FIFO (duplicates possible) vs
 *    the idealized distinct-LRU window the paper deems inessential;
 *  - L2 filtering on/off: how much it suppresses useless migrations
 *    on working-sets that fit one L2 (the paper credits it for bh,
 *    vortex, crafty staying quiet).
 *
 * One sweep cell per (benchmark, variant) run; rows collate per table.
 */

#include <string>
#include <vector>

#include "paper.hpp"
#include "sim/quadcore.hpp"
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"

using namespace xmig;

namespace {

/** One ablation run: a controller variant applied to one benchmark. */
struct Case
{
    size_t table; ///< 0 = A_R, 1 = R-window, 2 = L2 filtering
    const char *bench;
    const char *label;
    MigrationControllerConfig cc;
};

SweepRow
runCfg(const Case &c, const BenchOptions &opt)
{
    QuadcoreParams params;
    params.instructionsPerBenchmark = opt.instructions;
    params.seed = opt.seed;
    params.machine.controller = c.cc;
    const QuadcoreRow r = runQuadcore(c.bench, params);
    return {"",
            {r.name, c.label, ratio2(r.missRatio()),
             formatString("%llu", (unsigned long long)r.migrations)}};
}

} // namespace

std::string
xmig::paperMechanism(const BenchOptions &opt)
{
    const MigrationControllerConfig base =
        MachineConfig::defaultController();

    std::vector<Case> cases;
    for (const char *b : {"179.art", "health", "164.gzip"}) {
        MigrationControllerConfig cc = base;
        cc.ar = ArKind::Exact;
        cases.push_back({0, b, "Exact (Definition 1)", cc});
        cc.ar = ArKind::Figure2;
        cases.push_back({0, b, "Figure-2 register", cc});
    }
    for (const char *b : {"179.art", "health"}) {
        MigrationControllerConfig cc = base;
        cc.window = WindowKind::Fifo;
        cases.push_back({1, b, "FIFO (hardware)", cc});
        cc.window = WindowKind::DistinctLru;
        cases.push_back({1, b, "distinct LRU (ideal)", cc});
    }
    for (const char *b : {"bh", "300.twolf", "186.crafty", "179.art"}) {
        MigrationControllerConfig cc = base;
        cc.l2Filtering = true;
        cases.push_back({2, b, "on (paper)", cc});
        cc.l2Filtering = false;
        cases.push_back({2, b, "off", cc});
    }

    const SweepSpec spec{cases.size(), [&](size_t i) {
                             return RunResult{"", {runCfg(cases[i], opt)}};
                         }};
    const std::vector<RunResult> results = runSweep(spec, opt.jobs);
    const auto render = [&](size_t which, const char *column,
                            const char *title) {
        AsciiTable table({"benchmark", column, "ratio", "migrations"});
        for (size_t i = 0; i < cases.size(); ++i) {
            if (cases[i].table == which)
                collateRows({results[i]}, table);
        }
        return table.render(title);
    };

    return render(0, "A_R maintenance", "A_R maintenance ablation") +
           "\n" +
           render(1, "R-window", "R-window organization ablation") +
           "\n" +
           render(2, "L2 filtering",
                  "L2-filtering ablation: small-footprint benchmarks "
                  "must stay quiet");
}
