/**
 * @file
 * xmig-swift speed baseline: the tracked numbers behind
 * BENCH_swift.json.
 *
 * Two measurements:
 *
 *  1. Sweep scaling — wall-clock time of a fixed quad-core sweep (the
 *     Table 2 smoke set, 1M instructions per benchmark) at
 *     --jobs 1, 2, 4, ... up to the host core count. The --jobs 1 run
 *     is the serial reference; ideal scaling halves the time per
 *     doubling until the cell count (6) or the core count binds.
 *
 *  2. Hot-path ns/reference — single-thread microloops over the
 *     per-reference kernels: AffinityEngine::reference with FIFO and
 *     distinct-LRU windows, the affinity-cache probe/update loop, and
 *     MigrationMachine on a recorded 179.art stream both
 *     per-reference (access) and batched (accessBatch, K = 64, the
 *     xmig-bolt pipeline). These move with the per-reference
 *     overhaul, not with the runner. The headline gate number is the
 *     *batched* machine kernel — that is the path the sweep runs.
 *
 * Results go to stdout, to --csv F (one row per measurement), and to
 * --json F as BENCH_swift.json: a machine-readable baseline a CI job
 * can archive and diff. Wall-clock numbers vary with the host, so the
 * JSON records the core count alongside; byte-identity of *sweep
 * output* across --jobs is asserted here as a side effect (cheap
 * insurance in the binary that owns the speed claim).
 *
 * Flags beyond the common set: --smoke (shrink budgets for CI),
 * --csv F, --json F.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/oe_store.hpp"
#include "core/soa_oe_store.hpp"
#include "multicore/arena.hpp"
#include "multicore/machine.hpp"
#include "sim/options.hpp"
#include "sim/quadcore.hpp"
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

using namespace xmig;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The fixed sweep under test: Table 2's smoke set. */
const std::vector<std::string> kBenches = {
    "164.gzip", "179.art", "181.mcf", "188.ammp", "em3d", "health",
};

/** Run the sweep once at `jobs` workers; returns (seconds, output). */
std::pair<double, std::string>
timedSweep(uint64_t instructions, uint64_t seed, unsigned jobs)
{
    std::string tables[6];
    SweepSpec spec;
    spec.cells = kBenches.size();
    spec.run = [&](size_t i) {
        QuadcoreParams params;
        params.instructionsPerBenchmark = instructions;
        params.seed = seed;
        const QuadcoreRow r = runQuadcore(kBenches[i], params);
        RunResult res;
        char migs[24];
        std::snprintf(migs, sizeof(migs), "%llu",
                      (unsigned long long)r.migrations);
        res.rows.push_back({"", {r.name, ratio2(r.missRatio()), migs}});
        return res;
    };
    const double t0 = now();
    const std::vector<RunResult> results = runSweep(spec, jobs);
    const double dt = now() - t0;
    AsciiTable table({"benchmark", "ratio", "migrations"});
    collateRows(results, table);
    return {dt, table.render()};
}

/** A recorded reference stream for the machine microloop. */
class RefRecorder : public RefSink
{
  public:
    void access(const MemRef &ref) override { refs_.push_back(ref); }
    const std::vector<MemRef> &refs() const { return refs_; }

  private:
    std::vector<MemRef> refs_;
};

double
engineLoopNs(WindowKind window, uint64_t iters)
{
    EngineConfig ec;
    ec.windowSize = 128;
    ec.window = window;
    UnboundedOeStore store(16);
    AffinityEngine engine(ec, store);
    CircularStream stream(4000);
    int64_t sink = 0;
    // Untimed warm-up: fill the R-window and the O_e map so the
    // measured loop is steady-state at any --smoke budget.
    for (uint64_t i = 0; i < 8'000; ++i)
        sink += engine.reference(stream.next()).ae;
    const double t0 = now();
    for (uint64_t i = 0; i < iters; ++i)
        sink += engine.reference(stream.next()).ae;
    const double dt = now() - t0;
    // Keep the accumulated value alive so the loop cannot fold away.
    if (sink == 0x7eadbeef)
        std::fprintf(stderr, "#");
    return dt / static_cast<double>(iters) * 1e9;
}

/**
 * Affinity-cache probe/update loop, isolated from the engine: the
 * access pattern is a circular sweep wider than the cache, so every
 * iteration probes and every fourth updates (forcing evictions),
 * through the devirtualized *Fast entry points the batched engine
 * uses.
 */
double
probeLoopNs(uint64_t iters)
{
    AffinityCacheConfig ac; // the section 4.2 default: 8k, 4-way
    SoaAffinityStore store(ac);
    // Prime, ~3/4 of the entry count: the sweep mostly hits (the
    // affinity cache's operating regime), with enough conflict misses
    // in the skewed banks to keep the install path warm.
    const uint64_t span = 6'151;
    int64_t sink = 0;
    uint64_t line = 0;
    // Untimed warm-up: two full sweeps install the working set so the
    // measured loop starts in the mostly-hit regime.
    for (uint64_t i = 0; i < 2 * span; ++i) {
        line = line + 1 == span ? 0 : line + 1;
        sink += store.lookupFast(line, 3);
    }
    const double t0 = now();
    for (uint64_t i = 0; i < iters; ++i) {
        line = line + 1 == span ? 0 : line + 1;
        sink += store.lookupFast(line, 3);
        if ((i & 3) == 0)
            store.storeFast(line ^ 0x1555, sink & 0xff);
    }
    const double dt = now() - t0;
    if (sink == 0x7eadbeef)
        std::fprintf(stderr, "#");
    return dt / static_cast<double>(iters) * 1e9;
}

/** Machine kernel over a recorded 179.art stream. With `batched`,
 *  references go through accessBatch() in K = 64 chunks — the path
 *  the quad-core sweep feeds — otherwise one access() per reference
 *  (the pre-bolt baseline, kept to track the amortization win). */
double
machineLoopNs(uint64_t iters, bool batched)
{
    MachineConfig mc;
    MigrationMachine machine(mc);
    RefRecorder recorder;
    makeWorkload("179.art")->run(recorder, 200'000, 42);
    const std::vector<MemRef> &refs = recorder.refs();
    // Untimed warm-up: one full pass fills the L1s/L2s and the
    // affinity cache, so the cold-fill transient does not dominate
    // short --smoke budgets.
    for (const MemRef &ref : refs)
        machine.access(ref);
    size_t i = 0;
    const double t0 = now();
    if (batched) {
        for (uint64_t left = iters; left > 0;) {
            size_t k = MigrationMachine::kBatchRefs;
            if (left < k)
                k = static_cast<size_t>(left);
            if (refs.size() - i < k)
                k = refs.size() - i;
            machine.accessBatch(refs.data() + i, k);
            i = (i + k) % refs.size();
            left -= k;
        }
    } else {
        for (uint64_t n = 0; n < iters; ++n) {
            machine.access(refs[i]);
            i = (i + 1) % refs.size();
        }
    }
    const double dt = now() - t0;
    return dt / static_cast<double>(iters) * 1e9;
}

/**
 * End-to-end xmig-arena feed: ns per reference of a two-tenant
 * throughput arena — probe, tenant fibers, scheduler arbitration
 * and shared-L3 contention included. This is the whole-pipeline cost
 * bench_figure1 pays per cell, so it moves with the arena plumbing
 * (fiber switches, session bookkeeping), not just the machine kernel.
 */
double
arenaLoopNs(uint64_t instr)
{
    ArenaConfig cfg;
    cfg.mode = ArenaMode::Throughput;
    cfg.tenants = {{"mst", instr, 42}, {"bisort", instr, 42}};
    cfg.probeInstructions = 50'000;
    const double t0 = now();
    TenantArena arena(cfg);
    const ArenaResult r = arena.run();
    const double dt = now() - t0;
    uint64_t refs = 0;
    for (const TenantResult &t : r.tenants)
        refs += t.refs;
    return dt / static_cast<double>(refs > 0 ? refs : 1) * 1e9;
}

std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt = BenchOptions::parse(argc, argv);
    std::string csv_path, json_path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc)
            csv_path = argv[++i];
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
    }
    const uint64_t instr = opt.smoke ? 200'000 : 1'000'000;
    const uint64_t micro_iters = opt.smoke ? 400'000 : 4'000'000;
    const unsigned cores = JobPool::defaultJobs();

    // Sweep scaling: jobs = 1, 2, 4, ... up to the core count (and
    // always the core count itself), plus an oversubscribed point at
    // 8 to cover workers > cells.
    std::vector<unsigned> ladder = {1};
    for (unsigned j = 2; j < cores; j *= 2)
        ladder.push_back(j);
    if (cores > 1)
        ladder.push_back(cores);
    if (ladder.back() < 8)
        ladder.push_back(8);

    std::string out;
    out += "xmig-swift speed baseline: " +
           std::to_string(kBenches.size()) + "-cell quad-core sweep, " +
           std::to_string(instr) + " instructions per benchmark, " +
           std::to_string(cores) + " host cores\n\n";

    AsciiTable scaling({"--jobs", "wall [s]", "speedup", "identical"});
    std::vector<std::pair<unsigned, double>> sweep_times;
    std::string reference_output;
    double serial_s = 0.0;
    bool all_identical = true;
    for (unsigned jobs : ladder) {
        const auto [dt, text] = timedSweep(instr, opt.seed, jobs);
        if (jobs == 1) {
            serial_s = dt;
            reference_output = text;
        }
        const bool same = text == reference_output;
        all_identical = all_identical && same;
        sweep_times.push_back({jobs, dt});
        scaling.addRow({std::to_string(jobs), fmt("%.3f", dt),
                        fmt("%.2fx", serial_s / dt),
                        same ? "yes" : "NO"});
    }
    out += scaling.render("Sweep scaling (output must stay "
                          "byte-identical)");

    // Hot-path microloops.
    const double fifo_ns = engineLoopNs(WindowKind::Fifo, micro_iters);
    const double lru_ns =
        engineLoopNs(WindowKind::DistinctLru, micro_iters);
    const double probe_soa_ns = probeLoopNs(micro_iters);
    const double machine_ns = machineLoopNs(micro_iters, true);
    const double machine_scalar_ns = machineLoopNs(micro_iters, false);
    const double arena_ns = arenaLoopNs(instr);
    out += "\n";
    AsciiTable micro({"kernel", "ns/reference"});
    micro.addRow({"AffinityEngine FIFO/Exact", fmt("%.1f", fifo_ns)});
    micro.addRow(
        {"AffinityEngine DistinctLru/Exact", fmt("%.1f", lru_ns)});
    micro.addRow({"AffinityCache probe", fmt("%.1f", probe_soa_ns)});
    micro.addRow({"MigrationMachine 179.art (K=64)",
                  fmt("%.1f", machine_ns)});
    micro.addRow({"MigrationMachine 179.art (scalar)",
                  fmt("%.1f", machine_scalar_ns)});
    micro.addRow({"TenantArena 2-tenant throughput",
                  fmt("%.1f", arena_ns)});
    out += micro.render("Per-reference hot path (single thread)");

    if (!all_identical)
        out += "\nERROR: parallel sweep output diverged from the "
               "serial reference\n";
    flushAtomically(out, stdout);

    if (!csv_path.empty()) {
        if (FILE *f = std::fopen(csv_path.c_str(), "w")) {
            std::fprintf(f, "measurement,value\n");
            for (const auto &[jobs, dt] : sweep_times)
                std::fprintf(f, "sweep_wall_s_jobs%u,%.4f\n", jobs,
                             dt);
            std::fprintf(f, "engine_fifo_ns_per_ref,%.2f\n", fifo_ns);
            std::fprintf(f, "engine_lru_ns_per_ref,%.2f\n", lru_ns);
            std::fprintf(f, "affinity_probe_soa_ns,%.2f\n",
                         probe_soa_ns);
            std::fprintf(f, "machine_ns_per_ref,%.2f\n", machine_ns);
            std::fprintf(f, "machine_scalar_ns_per_ref,%.2f\n",
                         machine_scalar_ns);
            std::fprintf(f, "arena_2tenant_ns_per_ref,%.2f\n",
                         arena_ns);
            std::fclose(f);
        } else {
            std::fprintf(stderr, "warning: cannot write %s\n",
                         csv_path.c_str());
        }
    }
    if (!json_path.empty()) {
        if (FILE *f = std::fopen(json_path.c_str(), "w")) {
            // Host metadata: wall-clock and ns/ref numbers only
            // compare within one (core count, compiler) environment,
            // so xmig_report --diff refuses cross-host gates.
            std::fprintf(f,
                         "{\n"
                         "  \"bench\": \"xmig-swift\",\n"
                         "  \"host_cores\": %u,\n"
                         "  \"compiler\": \"%s\",\n"
                         "  \"sweep_cells\": %zu,\n"
                         "  \"instructions_per_cell\": %llu,\n"
                         "  \"batch_size\": %zu,\n"
                         "  \"output_identical_across_jobs\": %s,\n"
                         "  \"sweep_wall_s\": {",
                         cores,
#if defined(__VERSION__)
                         "" __VERSION__,
#else
                         "unknown",
#endif
                         kBenches.size(),
                         (unsigned long long)instr,
                         MigrationMachine::kBatchRefs,
                         all_identical ? "true" : "false");
            for (size_t i = 0; i < sweep_times.size(); ++i)
                std::fprintf(f, "%s\"%u\": %.4f",
                             i == 0 ? "" : ", ", sweep_times[i].first,
                             sweep_times[i].second);
            std::fprintf(f,
                         "},\n"
                         "  \"ns_per_reference\": {\n"
                         "    \"engine_fifo_exact\": %.2f,\n"
                         "    \"engine_distinctlru_exact\": %.2f,\n"
                         "    \"affinity_probe_soa\": %.2f,\n"
                         "    \"migration_machine_179art\": %.2f,\n"
                         "    \"migration_machine_179art_unbatched\":"
                         " %.2f,\n"
                         "    \"arena_2tenant_throughput\": %.2f\n"
                         "  }\n"
                         "}\n",
                         fifo_ns, lru_ns, probe_soa_ns,
                         machine_ns, machine_scalar_ns, arena_ns);
            std::fclose(f);
        } else {
            std::fprintf(stderr, "warning: cannot write %s\n",
                         json_path.c_str());
        }
    }
    return all_identical ? 0 : 1;
}
