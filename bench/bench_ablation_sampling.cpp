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
 *
 * One sweep cell per (benchmark, sampling config) pair (xmig-swift);
 * rows collate in sweep order, so --jobs N output is bit-identical
 * to the serial run.
 */

#include <cstdio>

#include "core/soa_oe_store.hpp"
#include "sim/options.hpp"
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

int
main(int argc, char **argv)
{
    // Several configs x benchmarks: half the Table-2 budget.
    const BenchOptions opt =
        BenchOptions::parse(argc, argv, 10'000'000, 1'000'000);

    // Storage arithmetic of section 3.5 (20-bit tags, 16-bit
    // affinities, 2 age bits).
    std::string out =
        "Affinity-cache storage (section 3.5 arithmetic):\n";
    for (unsigned entries_k : {32, 16, 8, 4}) {
        AffinityCacheConfig c;
        c.entries = uint64_t(entries_k) * 1024;
        SoaAffinityStore store(c);
        char buf[128];
        std::snprintf(
            buf, sizeof(buf),
            "  %2uk entries: %5.1f KB (%s of 2 MB L2 data)\n",
            entries_k,
            static_cast<double>(store.storageBits()) / 8.0 / 1024.0,
            ratio2(static_cast<double>(store.storageBits()) / 8.0 /
                   (2.0 * 1024 * 1024) * 100.0)
                .append("%")
                .c_str());
        out += buf;
    }

    const std::vector<std::string> benches =
        opt.benchmarks.empty()
            ? std::vector<std::string>{"179.art", "health", "164.gzip"}
            : opt.benchmarks;

    SweepSpec spec;
    spec.cells = benches.size() * kNumCfgs;
    spec.run = [&](size_t i) {
        const std::string &name = benches[i / kNumCfgs];
        const Cfg &cfg = kCfgs[i % kNumCfgs];
        QuadcoreParams params;
        params.instructionsPerBenchmark = opt.instructions;
        params.seed = opt.seed;
        params.machine.controller.samplingCutoff = cfg.cutoff;
        params.machine.controller.affinityCache.entries = cfg.entries;
        const QuadcoreRow r = runQuadcore(name, params);
        char migs[24];
        std::snprintf(migs, sizeof(migs), "%llu",
                      (unsigned long long)r.migrations);
        RunResult res;
        res.rows.push_back({"",
                            {r.name, cfg.label, ratio2(r.missRatio()),
                             migs,
                             perEvent(r.instructions, r.migrations)}});
        return res;
    };
    const std::vector<RunResult> results = runSweep(spec, opt.jobs);

    AsciiTable table({"benchmark", "sampling", "ratio", "migrations",
                      "instr/mig"});
    collateRows(results, table);
    out += "\n";
    out += table.render("Table-2-style runs under different "
                        "sampling ratios");
    flushAtomically(out, stdout);
    return 0;
}
