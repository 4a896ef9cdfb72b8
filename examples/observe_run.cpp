/**
 * @file
 * xmig-scope end to end: metrics registry + time-series sampler +
 * Chrome trace on one quadcore run.
 *
 * Runs a single benchmark through the Table 2 machine pair with the
 * full observability stack attached, then prints where everything
 * landed and a short preview of each artifact:
 *
 *  - metrics JSONL: every counter of both machines, hierarchically
 *    named (feed to jq / pandas);
 *  - time-series CSV: A_R, Delta, filter value, migration and miss
 *    rates, per-core L2 occupancies sampled every N references
 *    (plot for Figure-3-style views of the algorithm at work);
 *  - Chrome trace JSON: the xmig-lens event journal (migrations with
 *    their causes, subset transitions, fault and recovery events) on
 *    a simulated-time axis — open it in chrome://tracing or
 *    https://ui.perfetto.dev.
 *
 * Build & run:  ./build/examples/observe_run
 *   (or pass --bench 179.art --instr 2000000 --sample-every 5000
 *    --metrics-out m.jsonl --samples-out s.csv --trace-out t.json)
 */

#include <cstdio>

#include "obs/prof.hpp"
#include "sim/observe.hpp"
#include "sim/options.hpp"
#include "sim/quadcore.hpp"
#include "util/stats.hpp"

using namespace xmig;

int
main(int argc, char **argv)
{
    BenchOptions opt = BenchOptions::parse(argc, argv, 4'000'000);
    // Observability on by default: this example exists to produce the
    // three artifacts, so unset outputs get filenames rather than
    // being disabled.
    if (opt.metricsOut.empty())
        opt.metricsOut = "observe_metrics.jsonl";
    if (opt.samplesOut.empty())
        opt.samplesOut = "observe_samples.csv";
    if (opt.traceOut.empty())
        opt.traceOut = "observe_trace.json";
    if (opt.sampleEvery == 0)
        opt.sampleEvery = 2'000;

    const std::string bench =
        opt.benchmarks.empty() ? "179.art" : opt.benchmarks.front();

    QuadcoreParams params;
    params.instructionsPerBenchmark = opt.instructions;
    params.warmupInstructions = opt.warmup;
    params.seed = opt.seed;
    params.machine.faultPlan = opt.faultPlan;

    RunObservatory observatory(observeOptionsOf(opt));
    const QuadcoreRow row = runQuadcore(bench, params, &observatory);

    std::printf("benchmark %s: %llu instructions, %llu migrations, "
                "L2-miss ratio %.2f\n",
                row.name.c_str(),
                (unsigned long long)row.instructions,
                (unsigned long long)row.migrations, row.missRatio());

    // Note: the registry's pointers reached into machines that only
    // lived inside runQuadcore(), so values may not be *read* here —
    // the JSONL was exported by finish() while they were alive.
    std::printf("\nmetrics: %zu registered -> %s\n",
                observatory.registry().size(), opt.metricsOut.c_str());
    std::printf("  e.g. machine.l2_misses = %llu, "
                "machine.controller.migrations = %llu\n",
                (unsigned long long)row.l2Misses4x,
                (unsigned long long)row.migrations);

    const auto &sampler = observatory.sampler();
    std::printf("time series: %zu samples x %zu columns (every %llu "
                "refs) -> %s\n",
                sampler.samples(), sampler.columnNames().size(),
                (unsigned long long)sampler.config().sampleEvery,
                opt.samplesOut.c_str());

    std::printf("trace: -> %s (open in chrome://tracing or "
                "ui.perfetto.dev)\n", opt.traceOut.c_str());

    // Wall-clock phase profile of the run we just did.
    std::fputs(obs::ProfileRegistry::instance().report().c_str(),
               stdout);
    return 0;
}
