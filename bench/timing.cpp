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

#include "multicore/timing.hpp"
#include "paper.hpp"
#include "sim/quadcore.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

std::string
xmig::paperTiming(const BenchOptions &opt)
{
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
            proto.addRow(
                {formatString("%u", depth), formatString("%.2f", mp),
                 formatString("%.1f", model.migrationPenaltyCycles()),
                 formatString("%.2f", model.pmig())});
        }
    }
    std::string out = proto.render("Section 2.2 protocol: migration "
                                   "penalty = T broadcast + "
                                   "issue-to-retire depth (+ drain "
                                   "re-steers)");

    // IPC and speedup per benchmark under the stall model.
    TimingModel model;
    out += formatString(
        "\nStall model: baseCPI 1.0, L3 hit 20 cycles, migration %.1f "
        "cycles (P_mig = %.2f)\n\n",
        model.migrationPenaltyCycles(), model.pmig());

    AsciiTable table({"benchmark", "IPC base", "IPC migration",
                      "speedup"});
    for (const auto &name :
         benchmarksOr(opt, {"179.art", "188.ammp", "em3d", "health",
                            "181.mcf", "164.gzip", "175.vpr"})) {
        QuadcoreParams params;
        params.instructionsPerBenchmark = opt.instructions;
        params.seed = opt.seed;
        const QuadcoreRow r = runQuadcore(name, params);
        MachineStats base, mig;
        base.instructions = mig.instructions = r.instructions;
        base.l2Misses = r.l2MissesBaseline;
        mig.l2Misses = r.l2Misses4x;
        mig.migrations = r.migrations;
        table.addRow({r.name, formatString("%.3f", model.ipc(base)),
                      formatString("%.3f", model.ipc(mig)),
                      ratio2(model.speedup(base, mig))});
    }
    out += table.render("Estimated IPC: single core vs 4-core "
                        "execution migration");
    return out;
}
