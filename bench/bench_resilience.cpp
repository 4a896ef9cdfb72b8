/**
 * @file
 * xmig-iron resilience benchmark: degradation curves and recovery.
 *
 * Two experiments on the section 4.2 quad-core machine:
 *
 *  1. Degradation sweep — a soft-error rate r is swept over decades
 *     and applied to every affinity-state site (A_e, Delta, A_R, O_e,
 *     tags); the migration fabric and update bus degrade with it
 *     (drop/delay rates scale with r, capped; the fabric sees orders
 *     of magnitude fewer opportunities, hence the larger multiplier).
 *     Reports L2 misses, the miss ratio vs the clean run, migration
 *     frequency, fault/recovery counters, watchdog interventions,
 *     and estimated cycles including recovery overheads
 *     (TimingModel::cyclesWithRecovery). The watchdog is enabled so
 *     its livelock suppression shows up in the curve.
 *
 *  2. Recovery after core loss — a scripted `core_off` unplugs core 2
 *     (and its L2) mid-run; the windowed L2-miss rate around the
 *     event yields the recovery time: references until the miss rate
 *     first returns to the post-loss steady state (tail mean).
 *
 * Flags beyond the common BenchOptions set:
 *   --smoke        tiny budgets + a 2-point sweep (CI)
 *   --csv-dir DIR  write degradation.csv and recovery.csv into DIR
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fault/fault_injector.hpp"
#include "multicore/machine.hpp"
#include "multicore/timing.hpp"
#include "sim/options.hpp"
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

namespace {

/** Forward refs into a machine, recording per-window event deltas. */
class WindowedSink : public RefSink
{
  public:
    struct Window
    {
        uint64_t endRef = 0;
        uint64_t l2Misses = 0;
        uint64_t migrations = 0;
    };

    WindowedSink(MigrationMachine &machine, uint64_t every)
        : machine_(machine),
          every_(every)
    {
    }

    void
    access(const MemRef &ref) override
    {
        machine_.access(ref);
        if (++refs_ % every_ != 0)
            return;
        const MachineStats &s = machine_.stats();
        windows_.push_back({refs_, s.l2Misses - lastMisses_,
                            s.migrations - lastMigrations_});
        lastMisses_ = s.l2Misses;
        lastMigrations_ = s.migrations;
    }

    uint64_t refs() const { return refs_; }
    const std::vector<Window> &windows() const { return windows_; }

  private:
    MigrationMachine &machine_;
    uint64_t every_;
    uint64_t refs_ = 0;
    uint64_t lastMisses_ = 0;
    uint64_t lastMigrations_ = 0;
    std::vector<Window> windows_;
};

/** Count the references a workload emits (for placing `at=` rules). */
class RefCounterSink : public RefSink
{
  public:
    void access(const MemRef &) override { ++refs_; }
    uint64_t refs() const { return refs_; }

  private:
    uint64_t refs_ = 0;
};

/** The sweep's fault plan: every affinity site at r, fabric scaled. */
std::string
sweepPlan(double r)
{
    // Fabric opportunities (migration issues) are ~1000x rarer than
    // soft-error opportunities (requests), so the drop/delay rates
    // scale up with a cap; bus drops sit in between.
    const double fabric = std::min(0.25, r * 2.5e3);
    const double bus = std::min(0.01, r * 10.0);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "seed=7;"
                  "rate=%g:flip=ae;rate=%g:flip=delta;rate=%g:flip=ar;"
                  "rate=%g:flip=oe;rate=%g:flip=tag;"
                  "rate=%g:mig_drop;rate=%g:mig_delay=16;"
                  "rate=%g:bus_drop",
                  r, r, r, r, r, fabric, fabric, bus);
    return buf;
}

FILE *
openCsv(const std::string &dir, const char *name)
{
    if (dir.empty())
        return nullptr;
    const std::string path = dir + "/" + name;
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        std::fprintf(stderr, "warning: cannot write %s\n",
                     path.c_str());
    return f;
}

} // namespace

int
main(int argc, char **argv)
{
    // Resilience curves, not Table 2: 8 M instructions per point.
    const BenchOptions opt =
        BenchOptions::parse(argc, argv, 8'000'000, 2'000'000);
    const bool smoke = opt.smoke;
    std::string csv_dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv-dir") == 0 && i + 1 < argc)
            csv_dir = argv[++i];
    }

    // mcf migrates every ~4500 instructions (Table 2), so both the
    // affinity state and the fabric see constant fault pressure —
    // the curve is monotone where low-migration kernels are flat.
    const std::string bench =
        opt.benchmarks.empty() ? "181.mcf" : opt.benchmarks.front();
    const std::vector<double> rates =
        smoke ? std::vector<double>{0.0, 1e-4}
              : std::vector<double>{0.0, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4};

    std::printf("xmig-iron resilience: %s, %llu instructions per "
                "point%s\n\n",
                bench.c_str(),
                static_cast<unsigned long long>(opt.instructions),
                smoke ? " (smoke)" : "");

    // ----- Experiment 1: degradation sweep ---------------------------
    TimingModel timing;
    FILE *deg_csv = openCsv(csv_dir, "degradation.csv");
    if (deg_csv)
        std::fprintf(deg_csv,
                     "rate,l2_misses,miss_ratio_vs_clean,migrations,"
                     "faults_injected,mig_timeouts,mig_retries,"
                     "wd_livelocks,wd_suppressed,cycles,slowdown\n");

    AsciiTable table({"fault-rate", "L2miss", "ratio", "migration",
                      "faults", "timeouts", "wd-stops", "slowdown"});

    // The sweep points are independent simulations (the cross-point
    // ratio/slowdown columns derive from the clean point at collation
    // time), so each rate is one xmig-swift sweep cell.

    /** Raw per-point results; ratios are derived after the join. */
    struct DegPoint
    {
        MachineStats stats;
        RecoveryStats rec;
        WatchdogStats wd;
        uint64_t faults = 0;
        double cycles = 0.0;
    };
    std::vector<DegPoint> points(rates.size());

    SweepSpec spec;
    spec.cells = rates.size();
    spec.run = [&](size_t i) {
        const double r = rates[i];
        MachineConfig cfg;
        cfg.controller.watchdog.enabled = true;
        if (r > 0.0)
            cfg.faultPlan = sweepPlan(r);
        MigrationMachine machine(cfg);
        makeWorkload(bench)->run(machine, opt.instructions, opt.seed);

        DegPoint &p = points[i];
        p.stats = machine.stats();
        p.rec = machine.controller()->recovery();
        p.wd = machine.controller()->watchdog().stats();
        p.faults = machine.injector()
            ? machine.injector()->stats().total()
            : 0;
        p.cycles = timing.cyclesWithRecovery(p.stats, p.rec);
        return RunResult{};
    };
    runSweep(spec, opt.jobs);

    uint64_t clean_misses = 0;
    double clean_cycles = 0.0;
    for (size_t i = 0; i < rates.size(); ++i) {
        const double r = rates[i];
        const DegPoint &p = points[i];
        const MachineStats &s = p.stats;
        if (r == 0.0) {
            clean_misses = s.l2Misses;
            clean_cycles = p.cycles;
        }
        const double ratio =
            clean_misses == 0
                ? 1.0
                : static_cast<double>(s.l2Misses) /
                      static_cast<double>(clean_misses);
        const double slowdown =
            clean_cycles == 0.0 ? 1.0 : p.cycles / clean_cycles;

        char rb[24], miss[24], fl[24], to[24], wds[24], sd[24];
        std::snprintf(rb, sizeof(rb), "%g", r);
        std::snprintf(miss, sizeof(miss), "%llu",
                      static_cast<unsigned long long>(s.l2Misses));
        std::snprintf(fl, sizeof(fl), "%llu",
                      static_cast<unsigned long long>(p.faults));
        std::snprintf(to, sizeof(to), "%llu",
                      static_cast<unsigned long long>(
                          p.rec.migTimeouts));
        std::snprintf(wds, sizeof(wds), "%llu",
                      static_cast<unsigned long long>(
                          p.wd.suppressed));
        std::snprintf(sd, sizeof(sd), "%.3f", slowdown);
        table.addRow({rb, miss, ratio2(ratio),
                      perEvent(s.instructions, s.migrations), fl, to,
                      wds, sd});
        if (deg_csv)
            std::fprintf(deg_csv,
                         "%g,%llu,%.4f,%llu,%llu,%llu,%llu,%llu,"
                         "%llu,%.0f,%.4f\n",
                         r,
                         static_cast<unsigned long long>(s.l2Misses),
                         ratio,
                         static_cast<unsigned long long>(s.migrations),
                         static_cast<unsigned long long>(p.faults),
                         static_cast<unsigned long long>(
                             p.rec.migTimeouts),
                         static_cast<unsigned long long>(
                             p.rec.migRetries),
                         static_cast<unsigned long long>(
                             p.wd.livelocks),
                         static_cast<unsigned long long>(
                             p.wd.suppressed),
                         p.cycles, slowdown);
    }
    std::fputs(table.render("Degradation curve: affinity soft-error "
                            "rate vs misses, migrations and estimated "
                            "slowdown (watchdog on)").c_str(),
               stdout);
    if (deg_csv)
        std::fclose(deg_csv);

    // ----- Experiment 2: recovery after core loss --------------------
    // Size the scripted unplug in references: replay the workload
    // through a counting sink (deterministic streams make the count
    // exact), then fire core_off=2 at the halfway reference.
    RefCounterSink counter;
    makeWorkload(bench)->run(counter, opt.instructions, opt.seed);
    const uint64_t fault_ref = counter.refs() / 2;
    const uint64_t window =
        std::max<uint64_t>(counter.refs() / 100, 10'000);

    char plan[64];
    std::snprintf(plan, sizeof(plan), "seed=1;at=%llu:core_off=2",
                  static_cast<unsigned long long>(fault_ref));
    MachineConfig cfg;
    cfg.faultPlan = plan;
    MigrationMachine machine(cfg);
    WindowedSink sink(machine, window);
    makeWorkload(bench)->run(sink, opt.instructions, opt.seed);

    const auto &windows = sink.windows();
    // Post-loss steady state: mean windowed miss count over the tail
    // quarter; recovery = first post-fault window back within 1.5x.
    std::vector<WindowedSink::Window> post;
    for (const auto &w : windows)
        if (w.endRef > fault_ref)
            post.push_back(w);
    double steady = 0.0;
    uint64_t recovered_at = 0;
    if (post.size() >= 4) {
        const size_t tail = post.size() / 4;
        for (size_t i = post.size() - tail; i < post.size(); ++i)
            steady += static_cast<double>(post[i].l2Misses);
        steady /= static_cast<double>(tail);
        for (const auto &w : post) {
            if (static_cast<double>(w.l2Misses) <= steady * 1.5) {
                recovered_at = w.endRef;
                break;
            }
        }
    }

    const RecoveryStats &rec = machine.controller()->recovery();
    std::printf("\nRecovery after core loss (core_off=2 at reference "
                "%llu):\n",
                static_cast<unsigned long long>(fault_ref));
    std::printf("  live cores %u, split ways %u, resplits %llu, "
                "forced migrations %llu\n",
                machine.controller()->liveCores(),
                machine.controller()->splitWays(),
                static_cast<unsigned long long>(rec.resplits),
                static_cast<unsigned long long>(rec.forcedMigrations));
    std::printf("  dirty L2 lines lost %llu, post-loss steady state "
                "%.0f misses/%lluk refs\n",
                static_cast<unsigned long long>(
                    machine.stats().dirtyLinesLost),
                steady,
                static_cast<unsigned long long>(window / 1000));
    if (recovered_at > 0)
        std::printf("  recovered (windowed miss rate within 1.5x of "
                    "steady state) after %llu references\n",
                    static_cast<unsigned long long>(recovered_at -
                                                    fault_ref));
    else
        std::printf("  run too short to locate the recovery point\n");

    FILE *rec_csv = openCsv(csv_dir, "recovery.csv");
    if (rec_csv) {
        std::fprintf(rec_csv,
                     "end_ref,l2_misses,migrations,phase\n");
        for (const auto &w : windows)
            std::fprintf(rec_csv, "%llu,%llu,%llu,%s\n",
                         static_cast<unsigned long long>(w.endRef),
                         static_cast<unsigned long long>(w.l2Misses),
                         static_cast<unsigned long long>(w.migrations),
                         w.endRef <= fault_ref ? "pre" : "post");
        std::fclose(rec_csv);
    }
    return 0;
}
