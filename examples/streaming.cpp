/**
 * @file
 * Scenario: a streaming workload — the "do no harm" requirement.
 *
 * Execution migration must not degrade programs it cannot help. A
 * working-set streaming far beyond the total on-chip L2 capacity
 * (here ~10 MB against 4 x 512 KB) gains nothing from migrating, so
 * the machine's two safety valves must keep migrations near zero:
 *  - L2 filtering (section 3.4): the transition filter only moves on
 *    L2 misses — but here that is every access, so the second valve
 *    matters more:
 *  - the finite affinity cache (section 4.2): a >>2 MB working-set
 *    misses the 8k-entry affinity cache constantly, each miss forces
 *    A_e = 0, and a zero affinity never pushes the filter anywhere.
 *
 * Build & run:  ./build/examples/streaming
 */

#include <cstdio>

#include "multicore/feed.hpp"
#include "multicore/machine.hpp"
#include "workloads/workload.hpp"

using namespace xmig;

namespace {

/**
 * Sequential sweeps over a ~10 MB buffer (a DAXPY-ish kernel), with
 * occasional random probes into a small index table — the random
 * component is what tempts an unguarded controller into useless
 * migrations.
 */
class Streaming : public Workload
{
  public:
    Streaming()
    {
        Arena arena;
        x_ = ArenaArray::make(arena, kElems, 8);
        y_ = ArenaArray::make(arena, kElems, 8);
        index_ = ArenaArray::make(arena, 4096, 8);
        info_ = {"streaming", "example",
                 "sequential sweeps over ~10 MB + small index table"};
    }

    const WorkloadInfo &info() const override { return info_; }

  protected:
    void
    execute(EmitCtx &ctx) override
    {
        while (!ctx.done()) {
            for (uint64_t i = 0; i < kElems && !ctx.done(); ++i) {
                ctx.load(x_.at(i));
                ctx.load(y_.at(i));
                ctx.op(1);
                ctx.store(y_.at(i));
                if ((i & 7) == 0)
                    ctx.load(index_.at(ctx.rng().below(4096)));
            }
        }
    }

  private:
    static constexpr uint64_t kElems = 640'000; // 2 x 5.1 MB
    ArenaArray x_;
    ArenaArray y_;
    ArenaArray index_;
    WorkloadInfo info_;
};

} // namespace

int
main()
{
    constexpr uint64_t kInstructions = 20'000'000;
    Streaming workload;

    MachineConfig base_cfg;
    base_cfg.numCores = 1;
    MigrationMachine baseline(base_cfg);

    MachineConfig mig_cfg; // paper 4-core machine, all valves on
    MigrationMachine with_valves(mig_cfg);

    MachineConfig no_valves_cfg = mig_cfg;
    no_valves_cfg.controller.l2Filtering = false;
    no_valves_cfg.controller.boundedStore = false;
    no_valves_cfg.controller.samplingCutoff = 31;
    MigrationMachine without_valves(no_valves_cfg);

    std::printf("running %s for %lluM instructions...\n",
                workload.info().name.c_str(),
                (unsigned long long)(kInstructions / 1'000'000));
    ChunkFeed({&baseline, &with_valves, &without_valves})
        .run(workload, kInstructions);

    auto report = [&](const char *label, const MachineStats &s) {
        std::printf("%-26s L2 misses %9llu   migrations %7llu\n",
                    label, (unsigned long long)s.l2Misses,
                    (unsigned long long)s.migrations);
    };
    report("1-core baseline", baseline.stats());
    report("4-core, paper valves", with_valves.stats());
    report("4-core, valves disabled", without_valves.stats());

    const double suppression =
        with_valves.stats().migrations == 0
            ? static_cast<double>(without_valves.stats().migrations)
            : static_cast<double>(without_valves.stats().migrations) /
                  static_cast<double>(with_valves.stats().migrations);
    std::printf("\nA stream this size cannot benefit from migration; "
                "the paper's valves (L2\nfiltering + finite affinity "
                "cache + sampling) keep the machine quiet — a\n"
                "%.0fx migration suppression versus the unguarded "
                "controller — while the\nL2 miss count stays at the "
                "baseline.\n", suppression);
    return 0;
}
