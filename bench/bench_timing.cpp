/**
 * @file
 * End-to-end timing estimate (sections 2.2 + 2.4 combined).
 *
 * Grounds the paper's abstract P_mig in the section 2.2 protocol:
 * the migration penalty is the update-bus broadcast of the
 * transition instruction plus the issue-to-retirement pipeline depth
 * (plus mispredict re-steers during the drain). For reasonable
 * pipelines that is a handful of cycles — a *fraction* of one
 * L2-miss/L3-hit penalty, far below every measured break-even — so
 * the stall model converts Table 2's event counts into IPC and
 * speedup estimates.
 */

#include <cstdio>

#include "multicore/timing.hpp"
#include "sim/options.hpp"
#include "sim/quadcore.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

int
main(int argc, char **argv)
{
    const BenchOptions opt = BenchOptions::parse(argc, argv, 12'000'000);

    // Protocol penalty across pipeline depths.
    AsciiTable proto({"issue-to-retire", "mispredict/instr",
                      "penalty (cycles)", "P_mig (L3-hit units)"});
    for (unsigned depth : {6u, 10u, 16u, 24u}) {
        for (double mp : {0.0, 0.01, 0.05}) {
            PipelineParams p;
            p.issueToRetireStages = depth;
            p.mispredictPerInstr = mp;
            LatencyParams l;
            TimingModel model(l, p);
            char d[8], m[8], pen[16], pm[16];
            std::snprintf(d, sizeof(d), "%u", depth);
            std::snprintf(m, sizeof(m), "%.2f", mp);
            std::snprintf(pen, sizeof(pen), "%.1f",
                          model.migrationPenaltyCycles());
            std::snprintf(pm, sizeof(pm), "%.2f", model.pmig());
            proto.addRow({d, m, pen, pm});
        }
    }
    std::fputs(proto.render("Section 2.2 protocol: migration penalty "
                            "= T broadcast + issue-to-retire depth "
                            "(+ drain re-steers)").c_str(),
               stdout);

    // IPC and speedup per benchmark under the stall model.
    const std::vector<std::string> benches =
        opt.benchmarks.empty()
            ? std::vector<std::string>{"179.art", "188.ammp", "em3d",
                                       "health", "181.mcf", "164.gzip",
                                       "175.vpr"}
            : opt.benchmarks;
    TimingModel model;
    std::printf("\nStall model: baseCPI 1.0, L3 hit 20 cycles, "
                "migration %.1f cycles (P_mig = %.2f)\n\n",
                model.migrationPenaltyCycles(), model.pmig());

    AsciiTable table({"benchmark", "IPC base", "IPC migration",
                      "speedup"});
    for (const auto &name : benches) {
        QuadcoreParams params;
        params.instructionsPerBenchmark = opt.instructions;
        params.seed = opt.seed;
        const QuadcoreRow r = runQuadcore(name, params);
        MachineStats base, mig;
        base.instructions = mig.instructions = r.instructions;
        base.l2Misses = r.l2MissesBaseline;
        mig.l2Misses = r.l2Misses4x;
        mig.migrations = r.migrations;
        char bi[16], mi[16];
        std::snprintf(bi, sizeof(bi), "%.3f", model.ipc(base));
        std::snprintf(mi, sizeof(mi), "%.3f", model.ipc(mig));
        table.addRow({r.name, bi, mi,
                      ratio2(model.speedup(base, mig))});
    }
    std::fputs(table.render("Estimated IPC: single core vs 4-core "
                            "execution migration").c_str(),
               stdout);
    return 0;
}
