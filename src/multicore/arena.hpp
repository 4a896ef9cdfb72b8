/**
 * @file
 * xmig-arena: a multi-session machine running N independent programs
 * on one simulated chip — the missing half of the paper's Figure 1.
 *
 * Every earlier experiment in this repository runs *one* program,
 * either pinned (baseline) or roaming over the aggregate L2
 * (migration mode). Figure 1's comparison needs the other half:
 * *throughput mode*, N programs resident on N cores, each with a
 * private L2, contending for the shared L3. The Arena models both
 * sides with the same machinery:
 *
 *  - A `Session` per tenant: the tenant's push-model Workload runs
 *    on a stackful fiber on the thread that calls run(). The
 *    TenantScheduler grants turns; each turn resumes the tenant's
 *    fiber, which feeds 64-ref chunks to its machine and suspends the
 *    moment the turn's budget runs out. Arbitration is therefore a
 *    pure function of the schedule, and one arena is one thread, so
 *    a run is byte-identical at any `--jobs`.
 *  - Migration mode: each tenant owns a numCores-way MigrationMachine
 *    (its own affinity controller) and tenants time-share the chip;
 *    the makespan is the *sum* of per-turn stall-model cycles.
 *  - Throughput mode: each tenant owns a pinned single-core machine;
 *    residents advance concurrently in simulated time and the
 *    makespan is the *max* of per-slot completion times. Tenants
 *    beyond the resident limit are admitted when a slot frees.
 *  - Both modes share a finite L3 (MachineConfig::sharedL3), either
 *    one unpartitioned cache or LFOC-style way clusters sized from a
 *    deterministic solo probe of each tenant (tenant_sched.hpp).
 *
 * Per-tenant address spaces are disjoint (a high-bit tenant offset on
 * every reference), so sharing is contention for capacity, exactly
 * as in the paper's throughput scenario — not data sharing.
 *
 * Observability: per-tenant turn-latency histograms and counters
 * register into xmig-scope (p50/p95/p99 come out of the standard
 * exporters), and scheduling decisions journal into xmig-lens under
 * the `tenant` cause tag.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "multicore/machine.hpp"
#include "multicore/tenant_sched.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"

namespace xmig {

/** Which half of Figure 1 the arena models. */
enum class ArenaMode : uint8_t
{
    Migration,  ///< tenants time-share the chip, each roams all cores
    Throughput, ///< tenants space-share the chip, one pinned core each
};

const char *arenaModeName(ArenaMode mode);

/** One tenant program. */
struct TenantSpec
{
    std::string benchmark;        ///< workloads/registry.hpp name
    uint64_t instructions = 200'000;
    uint64_t seed = 42;
};

struct ArenaConfig
{
    ArenaMode mode = ArenaMode::Throughput;
    std::vector<TenantSpec> tenants;

    /**
     * Per-tenant machine template. numCores is forced by the mode
     * (Migration keeps it, Throughput pins to 1); l3Bytes/sharedL3
     * are overridden by the arena's shared L3.
     */
    MachineConfig machine;

    uint64_t sharedL3Bytes = 1 * 1024 * 1024;
    unsigned sharedL3Ways = 16;
    L3Policy l3Policy = L3Policy::Unpartitioned;

    TenantSchedConfig sched;

    /** Solo-probe budget per tenant (appetite + solo baseline). */
    uint64_t probeInstructions = 30'000;
};

/** Per-tenant outcome. */
struct TenantResult
{
    std::string benchmark;
    uint64_t instructions = 0;
    uint64_t refs = 0;
    uint64_t l2Misses = 0;
    uint64_t l3Accesses = 0;
    uint64_t l3Misses = 0;
    uint64_t migrations = 0;
    uint64_t turns = 0;
    double cycles = 0;     ///< stall-model cycles under contention
    double soloCycles = 0; ///< probe-extrapolated solo cycles
    double slowdown = 1;   ///< cycles / soloCycles
    double p50TurnCycles = 0;
    double p95TurnCycles = 0;
    double p99TurnCycles = 0;
    unsigned cluster = 0;     ///< shared-L3 cluster index
    unsigned clusterWays = 0; ///< ways in that cluster
};

/** Whole-arena outcome. */
struct ArenaResult
{
    std::vector<TenantResult> tenants;
    double makespanCycles = 0;
    double aggregateIpc = 0;    ///< total instructions / makespan
    double weightedSpeedup = 0; ///< sum of soloCycles / cycles
    double unfairness = 1;      ///< max slowdown / min slowdown
    double jainFairness = 1;    ///< Jain index over 1/slowdown
    uint64_t sharedL3Accesses = 0;
    uint64_t sharedL3Misses = 0;
};

/**
 * N-tenant machine. Construction probes the tenants, carves the
 * shared L3 and builds the per-tenant machines; run() drives the
 * whole schedule to completion on the calling thread, starting each
 * tenant's fiber at its first turn. One-shot: run() may be called
 * exactly once.
 */
class TenantArena
{
  public:
    /** Per-tenant high-bit address offset (disjoint tenant heaps). */
    static constexpr uint64_t kTenantAddressStride = 1ULL << 40;

    explicit TenantArena(ArenaConfig config);
    ~TenantArena();

    TenantArena(const TenantArena &) = delete;
    TenantArena &operator=(const TenantArena &) = delete;

    /** Attach the xmig-lens journal for tenant scheduling events. */
    void attachJournal(obs::Journal *journal);

    /**
     * Register arena metrics under `prefix` (xmig-scope): per-tenant
     * machine counters (`<prefix>.tenant<i>.*`), per-tenant turn
     * histograms (`<prefix>.tenant<i>.turn_cycles`), and the shared
     * L3 cluster caches (`<prefix>.l3.cluster<k>.*`).
     */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) const;

    /** Solo-probe measurements taken at construction. */
    const std::vector<TenantProbe> &probes() const { return probes_; }

    /** Shared-L3 way clusters chosen at construction. */
    const std::vector<ClusterSpec> &clusters() const
    {
        return clusters_;
    }

    /** Drive every tenant to completion; callable exactly once. */
    ArenaResult run();

  private:
    struct Session;

    void probeTenants();
    void buildSharedL3();
    void buildSessions();
    double runSchedule(TenantScheduler &sched);
    uint64_t feedQuantum(Session &session, uint64_t budget);
    void runTurn(TenantScheduler &sched, unsigned tenant,
                 double *makespan, bool serial_time);
    void retireTenant(TenantScheduler &sched, unsigned tenant,
                      double now_cycles);
    double turnCost(const MachineStats &before,
                    const MachineStats &after) const;

    ArenaConfig config_;
    std::vector<TenantProbe> probes_;
    std::vector<ClusterSpec> clusters_;
    std::vector<std::unique_ptr<Cache>> sharedL3_; ///< one per cluster
    std::vector<std::unique_ptr<Session>> sessions_;
    obs::Journal *journal_ = nullptr;
    uint64_t refClock_ = 0; ///< total refs fed (journal timeline)
    bool ran_ = false;
};

} // namespace xmig
