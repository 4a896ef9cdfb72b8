/**
 * @file
 * Scenario: a pointer-chasing workload (the 181.mcf story).
 *
 * Demonstrates two things:
 *  - how to define your OWN workload against the Workload API (a
 *    linked-data-structure traversal, the class of programs the
 *    paper's conclusion highlights);
 *  - the full Table-2 methodology: run it on a single-core baseline
 *    and on the 4-core migration machine, compare L2 misses, and
 *    compute the break-even migration penalty.
 *
 * Build & run:  ./build/examples/pointer_chase
 */

#include <cstdio>
#include <vector>

#include "multicore/cost_model.hpp"
#include "multicore/feed.hpp"
#include "multicore/machine.hpp"
#include "workloads/workload.hpp"

using namespace xmig;

namespace {

/**
 * A ring of list nodes (~1.25 MB) traversed in pointer order, with a
 * field read per node — too big for one 512-KB L2, comfortable in
 * four. The node order is shuffled in memory, so there is no spatial
 * pattern for a prefetcher; only the *temporal* circular structure
 * remains, which is exactly what the affinity algorithm exploits.
 */
class PointerChase : public Workload
{
  public:
    PointerChase()
    {
        Arena arena;
        nodes_ = ArenaArray::make(arena, kNodes, 64); // one per line
        // Build a shuffled ring.
        std::vector<uint32_t> order(kNodes);
        for (uint64_t i = 0; i < kNodes; ++i)
            order[i] = static_cast<uint32_t>(i);
        Rng rng(2024);
        for (uint64_t i = kNodes - 1; i > 0; --i)
            std::swap(order[i], order[rng.below(i + 1)]);
        next_.resize(kNodes);
        for (uint64_t i = 0; i < kNodes; ++i)
            next_[order[i]] = order[(i + 1) % kNodes];
        info_ = {"pointer-chase", "example",
                 "shuffled 1.25 MB linked ring, traversed repeatedly"};
    }

    const WorkloadInfo &info() const override { return info_; }

  protected:
    void
    execute(EmitCtx &ctx) override
    {
        uint32_t node = 0;
        while (!ctx.done()) {
            ctx.loadPtr(nodes_.at(node));   // node->next
            ctx.load(nodes_.at(node, 16));  // node->payload
            ctx.op(2);                      // work on the payload
            if (ctx.rng().chance(0.05))
                ctx.store(nodes_.at(node, 32));
            node = next_[node];
        }
    }

  private:
    static constexpr uint64_t kNodes = 20'000;
    ArenaArray nodes_;
    std::vector<uint32_t> next_;
    WorkloadInfo info_;
};

} // namespace

int
main()
{
    constexpr uint64_t kInstructions = 30'000'000;

    PointerChase workload;

    MachineConfig base_cfg;
    base_cfg.numCores = 1;
    MigrationMachine baseline(base_cfg);

    MachineConfig mig_cfg; // defaults = the paper's 4-core machine
    MigrationMachine migration(mig_cfg);

    std::printf("running %s for %lluM instructions on 1-core and "
                "4-core machines...\n",
                workload.info().name.c_str(),
                (unsigned long long)(kInstructions / 1'000'000));
    ChunkFeed({&baseline, &migration}).run(workload, kInstructions);

    const auto &b = baseline.stats();
    const auto &m = migration.stats();
    std::printf("\n              baseline   migration\n");
    std::printf("L2 misses   %10llu  %10llu\n",
                (unsigned long long)b.l2Misses,
                (unsigned long long)m.l2Misses);
    std::printf("migrations  %10s  %10llu\n", "-",
                (unsigned long long)m.migrations);
    std::printf("\nL2-miss ratio: %.2f (paper's best cases: "
                "0.03-0.17)\n",
                static_cast<double>(m.l2Misses) /
                    static_cast<double>(b.l2Misses));

    MigrationTradeoff t;
    t.instructions = m.instructions;
    t.l2MissesBaseline = b.l2Misses;
    t.l2MissesMigration = m.l2Misses;
    t.migrations = m.migrations;
    std::printf("break-even P_mig: %.0f L2-miss penalties per "
                "migration\n", breakEvenPmig(t));
    for (double pmig : {10.0, 60.0}) {
        TimingParams tp;
        tp.pmig = pmig;
        std::printf("modeled speedup at P_mig = %3.0f: %.2fx\n", pmig,
                    estimatedSpeedup(t, tp));
    }
    return 0;
}
