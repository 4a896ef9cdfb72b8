/**
 * @file
 * Working-set sampling ablation (section 3.5).
 *
 * The affinity cache can shrink by tracking only lines with
 * H(e) = e mod 31 below a cutoff: cutoff 31 tracks everything
 * (32k entries / 152 KB in the paper's sizing), cutoff 8 tracks ~25%
 * (8k entries / 38 KB). This bench reports the storage arithmetic
 * and re-runs the Table 2 experiment on representative benchmarks at
 * several sampling ratios to show the miss-reduction is preserved.
 * One sweep cell per (benchmark, sampling config) pair.
 */

#include "core/soa_oe_store.hpp"
#include "paper.hpp"
#include "sim/quadcore.hpp"
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"

using namespace xmig;

namespace {

/** One sampling configuration of the affinity cache. */
struct Cfg
{
    const char *label;
    uint32_t cutoff;
    uint64_t entries;
};

constexpr Cfg kCfgs[] = {
    {"100% (32k entries)", 31, 32 * 1024},
    {"~50% (16k entries)", 16, 16 * 1024},
    {"~25% (8k entries, paper)", 8, 8 * 1024},
    {"~13% (4k entries)", 4, 4 * 1024},
};
constexpr size_t kNumCfgs = sizeof(kCfgs) / sizeof(kCfgs[0]);

} // namespace

std::string
xmig::paperSampling(const BenchOptions &opt)
{
    // Storage arithmetic of section 3.5 (20-bit tags, 16-bit
    // affinities, 2 age bits).
    std::string out =
        "Affinity-cache storage (section 3.5 arithmetic):\n";
    for (unsigned entries_k : {32, 16, 8, 4}) {
        AffinityCacheConfig c;
        c.entries = uint64_t(entries_k) * 1024;
        const double bytes =
            static_cast<double>(SoaAffinityStore(c).storageBits()) / 8.0;
        out += formatString(
            "  %2uk entries: %5.1f KB (%s%% of 2 MB L2 data)\n",
            entries_k, bytes / 1024.0,
            ratio2(bytes / (2.0 * 1024 * 1024) * 100.0).c_str());
    }

    const std::vector<std::string> benches =
        benchmarksOr(opt, {"179.art", "health", "164.gzip"});

    const SweepSpec spec{benches.size() * kNumCfgs, [&](size_t i) {
        const std::string &name = benches[i / kNumCfgs];
        const Cfg &cfg = kCfgs[i % kNumCfgs];
        QuadcoreParams params;
        params.instructionsPerBenchmark = opt.instructions;
        params.seed = opt.seed;
        params.machine.controller.samplingCutoff = cfg.cutoff;
        params.machine.controller.affinityCache.entries = cfg.entries;
        const QuadcoreRow r = runQuadcore(name, params);
        return RunResult{"",
                         {{"",
                           {r.name, cfg.label, ratio2(r.missRatio()),
                            formatString("%llu", (unsigned long long)
                                                     r.migrations),
                            perEvent(r.instructions, r.migrations)}}}};
    }};
    AsciiTable table({"benchmark", "sampling", "ratio", "migrations",
                      "instr/mig"});
    collateRows(runSweep(spec, opt.jobs), table);
    out += "\n";
    out += table.render("Table-2-style runs under different "
                        "sampling ratios");
    return out;
}
