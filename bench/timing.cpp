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
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"

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
            TimingModel model(p);
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

    // IPC and speedup per benchmark under the stall model, one sweep
    // cell per benchmark; the cells share the read-only model.
    const TimingModel model;
    out += formatString(
        "\nStall model: baseCPI %.1f, L3 hit %.0f cycles, migration %.1f "
        "cycles (P_mig = %.2f)\n\n",
        kBaseCpi, kL3HitCycles, model.migrationPenaltyCycles(),
        model.pmig());

    QuadcoreParams params;
    params.instructionsPerBenchmark = opt.instructions;
    params.seed = opt.seed;
    const std::vector<std::string> benches =
        benchmarksOr(opt, {"179.art", "188.ammp", "em3d", "health",
                           "181.mcf", "164.gzip", "175.vpr"});
    const SweepSpec spec{benches.size(), [&](size_t i) {
        const QuadcoreRow r = runQuadcore(benches[i], params);
        MachineStats base, mig;
        base.instructions = mig.instructions = r.instructions;
        base.l2Misses = r.l2MissesBaseline;
        mig.l2Misses = r.l2Misses4x;
        mig.migrations = r.migrations;
        return RunResult{"",
                         {{"",
                           {r.name, formatString("%.3f", model.ipc(base)),
                            formatString("%.3f", model.ipc(mig)),
                            ratio2(model.speedup(base, mig))}}}};
    }};
    AsciiTable table({"benchmark", "IPC base", "IPC migration",
                      "speedup"});
    collateRows(runSweep(spec, opt.jobs), table);
    out += table.render("Estimated IPC: single core vs 4-core "
                        "execution migration");
    return out;
}
