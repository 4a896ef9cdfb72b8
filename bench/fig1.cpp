/**
 * @file
 * Reproduces Figure 1: migration mode vs throughput mode.
 *
 * The paper's opening comparison pits one program roaming the
 * aggregate L2 (*migration mode*) against N programs pinned to N
 * cores and contending for the shared cache (*throughput mode*).
 * This experiment sweeps Table-1 workload mixes through both modes of
 * the xmig-arena multi-tenant machine and emits the crossover the
 * figure plots: cache-hungry pairs finish sooner time-sharing the
 * chip in migration mode (the aggregate 2-MB L2 removes their
 * misses), while cache-light quads finish sooner space-sharing it in
 * throughput mode (4-way parallelism with nothing to fight over).
 *
 * One sweep cell, with a private arena, per (mix, mode, L3-policy)
 * triple; stdout and the --csv file are byte-identical at any --jobs.
 * Throughput mode is additionally
 * swept under both shared-L3 policies (unpartitioned vs LFOC-style
 * way clusters), and the CSV carries the fairness metrics that
 * separate them.
 *
 * xmig-scope: --metrics-out dumps the first cell's registry —
 * per-tenant machine counters, per-tenant turn-latency histograms
 * (p50/p95/p99 in the JSONL), shared-L3 cluster stats. --journal-out
 * dumps the first cell's xmig-lens journal (tenant admission, turns,
 * finishes, partitions); --trace-out renders the same journal as a
 * Chrome trace.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "multicore/arena.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "paper.hpp"
#include "sim/runner/sweep.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

using namespace xmig;

namespace {

struct MixSpec
{
    const char *name;
    std::vector<const char *> benches;
};

/**
 * Table-1 mixes: three cache-hungry pairs (Table 2 shows art, mcf,
 * ammp, em3d and health losing most L2 misses to migration), one
 * contending hungry+light pair (the fairness showcase), and two
 * cache-light quads.
 */
const std::vector<MixSpec> kMixes = {
    {"art+mcf", {"179.art", "181.mcf"}},
    {"art+ammp", {"179.art", "188.ammp"}},
    {"em3d+health", {"em3d", "health"}},
    {"mcf+gzip", {"181.mcf", "164.gzip"}},
    {"gzip+swim+mgrid+parser",
     {"164.gzip", "171.swim", "172.mgrid", "197.parser"}},
    {"bisort+mst+twolf+vortex",
     {"bisort", "mst", "300.twolf", "255.vortex"}},
};

/** The three swept (mode, policy) arms. */
struct Arm
{
    ArenaMode mode;
    L3Policy policy;
};

const std::vector<Arm> kArms = {
    {ArenaMode::Migration, L3Policy::Unpartitioned},
    {ArenaMode::Throughput, L3Policy::Unpartitioned},
    {ArenaMode::Throughput, L3Policy::WayClustered},
};

} // namespace

std::string
xmig::paperFigure1(const BenchOptions &opt)
{
    std::vector<MixSpec> mixes;
    for (const MixSpec &mix : kMixes) {
        if (opt.benchmarks.empty() ||
            std::find(opt.benchmarks.begin(), opt.benchmarks.end(),
                      mix.name) != opt.benchmarks.end())
            mixes.push_back(mix);
    }
    if (mixes.empty())
        XMIG_FATAL("--bench matched no Figure-1 mix (use the mix "
                   "name, e.g. --bench art+mcf)");

    const size_t cells = mixes.size() * kArms.size();
    std::vector<ArenaResult> outs(cells); // collated post-join
    std::string firstCellMetrics;
    std::string firstCellJournal;
    std::string firstCellTrace;

    const SweepSpec spec{cells, [&](size_t i) {
        const MixSpec &mix = mixes[i / kArms.size()];
        const Arm &arm = kArms[i % kArms.size()];
        ArenaConfig cfg;
        cfg.mode = arm.mode;
        cfg.l3Policy = arm.policy;
        for (const char *bench : mix.benches)
            cfg.tenants.push_back(
                {bench, opt.instructions, opt.seed});
        // A 512-KB shared L3 makes the capacity fight visible at
        // smoke scale: contending throughput tenants thrash it,
        // while a migration-mode tenant's 2-MB aggregate L2 absorbs
        // the working set before the L3 matters.
        cfg.sharedL3Bytes = 512 * 1024;
        cfg.sched.maxResident = 4;
        // Migration mode time-shares the chip at OS-timeslice
        // granularity (one program owns every cache for a long
        // stretch); throughput mode interleaves finely to emulate
        // concurrent progress on pinned cores. A fine quantum in
        // migration mode would ping-pong the shared L3 between
        // tenants and erase exactly the capacity benefit Figure 1
        // measures.
        cfg.sched.quantumRefs =
            arm.mode == ArenaMode::Migration ? 1'048'576 : 4096;
        cfg.probeInstructions =
            std::max<uint64_t>(100'000, opt.instructions / 10);

        // Per-cell journal/registry (determinism contract: all
        // mutable state private to the cell).
        obs::Journal journal;
        TenantArena arena(cfg);
        arena.attachJournal(&journal);
        outs[i] = arena.run();
        const ArenaResult &r = outs[i];
        if (i == 0 && (!opt.metricsOut.empty() ||
                       !opt.journalOut.empty() ||
                       !opt.traceOut.empty())) {
            obs::MetricsRegistry registry;
            arena.registerMetrics(registry, "figure1");
            firstCellMetrics = registry.renderJsonl();
            firstCellJournal = journal.renderJsonl();
            firstCellTrace = journal.renderChromeTrace();
        }

        return RunResult{
            "",
            {{mix.name,
              {arenaModeName(arm.mode), l3PolicyName(arm.policy),
               formatString("%.3f", r.makespanCycles / 1e6),
               formatString("%.3f", r.aggregateIpc),
               formatString("%.3f", r.weightedSpeedup),
               formatString("%.3f", r.unfairness),
               formatString("%.3f", r.jainFairness),
               formatString("%llu", (unsigned long long)r.sharedL3Misses)}}}};
    }};
    const std::vector<RunResult> results = runSweep(spec, opt.jobs);

    std::string csv =
        "mix,mode,policy,tenants,instr_total,makespan_mcycles,"
        "aggregate_ipc,weighted_speedup,unfairness,jain_fairness,"
        "l3_accesses,l3_misses,max_p99_turn_cycles\n";
    for (size_t i = 0; i < cells; ++i) {
        const MixSpec &mix = mixes[i / kArms.size()];
        const Arm &arm = kArms[i % kArms.size()];
        const ArenaResult &r = outs[i];
        unsigned long long instructions = 0;
        double maxP99 = 0;
        for (const TenantResult &t : r.tenants) {
            instructions += t.instructions;
            maxP99 = std::max(maxP99, t.p99TurnCycles);
        }
        csv += formatString(
            "%s,%s,%s,%zu,%llu,%.3f,%.3f,%.3f,%.3f,%.3f,%llu,%llu,%.3f\n",
            mix.name, arenaModeName(arm.mode), l3PolicyName(arm.policy),
            mix.benches.size(), instructions, r.makespanCycles / 1e6,
            r.aggregateIpc, r.weightedSpeedup, r.unfairness,
            r.jainFairness, (unsigned long long)r.sharedL3Accesses,
            (unsigned long long)r.sharedL3Misses, maxP99);
    }

    // Crossover verdicts: migration's makespan vs the best
    // throughput arm's, per mix. They ride along in the CSV as
    // comment lines.
    std::string crossover;
    csv += "# crossover: mix,winner,migration_mcycles,"
           "best_throughput_mcycles\n";
    for (size_t m = 0; m < mixes.size(); ++m) {
        const double mig = outs[m * kArms.size() + 0].makespanCycles;
        const double thr =
            std::min(outs[m * kArms.size() + 1].makespanCycles,
                     outs[m * kArms.size() + 2].makespanCycles);
        const std::string line = formatString(
            "%s,%s,%.3f,%.3f\n", mixes[m].name,
            mig < thr ? "migration" : "throughput", mig / 1e6, thr / 1e6);
        crossover += line;
        csv += "# " + line;
    }

    AsciiTable table({"mode", "policy", "makespan(Mcyc)", "ipc",
                      "wspeedup", "unfairness", "jain", "l3miss"});
    collateRows(results, table);
    std::string out = table.render(
        "Figure 1: migration mode vs throughput mode (lower "
        "makespan wins the mix)");
    out += "\nCrossover (mix,winner,migration_mcycles,best_"
           "throughput_mcycles):\n";
    out += crossover;
    out += "\nNotes: per-tenant machines share a 512KB/16-way L3; "
           "migration mode\ntime-shares the chip at OS-timeslice "
           "quanta (makespan = sum of turns),\nthroughput mode "
           "space-shares it at fine quanta (makespan = max).\nStall "
           "model: 1 CPI + 20 cyc/L2 miss + 200 cyc/L3 miss + "
           "10*20 cyc/migration.\n";

    writeArtifact(opt.csvOut, csv, "--csv");
    writeArtifact(opt.metricsOut, firstCellMetrics, "--metrics-out");
    writeArtifact(opt.journalOut, firstCellJournal, "--journal-out");
    writeArtifact(opt.traceOut, firstCellTrace, "--trace-out");
    return out;
}
