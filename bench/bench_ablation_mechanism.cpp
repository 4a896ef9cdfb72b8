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
 * Every (benchmark, variant) run is one sweep cell (xmig-swift);
 * rows collate per table in sweep order, so --jobs N output is
 * bit-identical to the serial run.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/options.hpp"
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
    char migs[24];
    std::snprintf(migs, sizeof(migs), "%llu",
                  (unsigned long long)r.migrations);
    return {"", {r.name, c.label, ratio2(r.missRatio()), migs}};
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opt =
        BenchOptions::parse(argc, argv, 10'000'000, 1'000'000);

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

    SweepSpec spec;
    spec.cells = cases.size();
    spec.run = [&](size_t i) {
        RunResult res;
        res.rows.push_back(runCfg(cases[i], opt));
        return res;
    };
    const std::vector<RunResult> results = runSweep(spec, opt.jobs);
    const auto slice = [&](size_t which, AsciiTable &table) {
        for (size_t i = 0; i < cases.size(); ++i) {
            if (cases[i].table == which)
                collateRows({results[i]}, table);
        }
    };

    AsciiTable ar({"benchmark", "A_R maintenance", "ratio",
                   "migrations"});
    slice(0, ar);
    std::string out = ar.render("A_R maintenance ablation");

    out += "\n";
    AsciiTable win({"benchmark", "R-window", "ratio", "migrations"});
    slice(1, win);
    out += win.render("R-window organization ablation");

    out += "\n";
    AsciiTable l2f({"benchmark", "L2 filtering", "ratio",
                    "migrations"});
    slice(2, l2f);
    out += l2f.render("L2-filtering ablation: small-footprint "
                      "benchmarks must stay quiet");
    flushAtomically(out, stdout);
    return 0;
}
