/**
 * @file
 * xmig-arena: multi-tenant machine + tenant scheduler tests.
 *
 * The centerpiece is the golden-row regression for Figure 1's
 * crossover, pinned at the same configuration the fig1 experiment sweeps:
 * migration mode must win the cache-hungry pairs (time-sharing the
 * aggregate L2 removes their misses) and throughput mode must win the
 * cache-light quads (4-way parallelism with nothing to fight over).
 * Around it: LFOC-style way-clustering fairness, run-to-run
 * determinism of the whole arena (tenant fibers and all), the
 * makespan arithmetic of both modes, and unit coverage of the
 * scheduler's admission / rotation / deficit mechanics.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "multicore/arena.hpp"
#include "multicore/tenant_sched.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "workloads/registry.hpp"

namespace xmig {
namespace {

TenantProbe
probeWithMpki(double mpki)
{
    TenantProbe p;
    p.instructions = 1'000'000;
    p.refs = 300'000;
    p.l2Misses = static_cast<uint64_t>(mpki * 1000.0);
    p.soloCycles = 1'000'000.0;
    return p;
}

/** The fig1 experiment's cell configuration, pinned for golden rows. */
ArenaConfig
figureConfig(ArenaMode mode, L3Policy policy,
             const std::vector<const char *> &benches, uint64_t instr)
{
    ArenaConfig cfg;
    cfg.mode = mode;
    cfg.l3Policy = policy;
    for (const char *bench : benches)
        cfg.tenants.push_back({bench, instr, 42});
    cfg.sharedL3Bytes = 512 * 1024;
    cfg.sched.maxResident = 4;
    cfg.sched.quantumRefs =
        mode == ArenaMode::Migration ? 1'048'576 : 4096;
    cfg.probeInstructions = std::max<uint64_t>(100'000, instr / 10);
    return cfg;
}

double
makespanOf(ArenaMode mode, L3Policy policy,
           const std::vector<const char *> &benches, uint64_t instr)
{
    TenantArena arena(figureConfig(mode, policy, benches, instr));
    return arena.run().makespanCycles;
}

// ---------------------------------------------------------------
// Golden rows: the Figure 1 crossover.
// ---------------------------------------------------------------

TEST(ArenaCrossover, MigrationWinsCacheHungryPairs)
{
    // Table 2's biggest migration winners: their working sets fit
    // the 2-MB aggregate L2 but thrash a shared 512-KB L3.
    const uint64_t instr = 2'000'000;
    for (const std::vector<const char *> &pair :
         {std::vector<const char *>{"188.ammp", "179.art"},
          std::vector<const char *>{"em3d", "health"}}) {
        const double mig = makespanOf(
            ArenaMode::Migration, L3Policy::Unpartitioned, pair,
            instr);
        const double thr = makespanOf(
            ArenaMode::Throughput, L3Policy::Unpartitioned, pair,
            instr);
        EXPECT_LT(mig, thr)
            << pair[0] << "+" << pair[1]
            << ": migration should win the cache-hungry pair";
    }
}

TEST(ArenaCrossover, ThroughputWinsCacheLightQuad)
{
    // Four small-footprint programs: nothing to fight over, so
    // 4-way space-sharing beats serial time-sharing by roughly the
    // parallelism factor.
    const std::vector<const char *> quad = {"bisort", "mst",
                                            "300.twolf",
                                            "255.vortex"};
    const double mig = makespanOf(ArenaMode::Migration,
                                  L3Policy::Unpartitioned, quad,
                                  1'000'000);
    const double thr = makespanOf(ArenaMode::Throughput,
                                  L3Policy::Unpartitioned, quad,
                                  1'000'000);
    EXPECT_LT(thr, mig)
        << "throughput should win the cache-light quad";
}

TEST(ArenaCrossover, WayClusteringImprovesFairnessOnContendingMix)
{
    // em3d (hungry) + health (hungrier): unpartitioned, the heavier
    // stream starves the lighter one; LFOC-style clusters protect
    // each tenant's share. Both fairness metrics must agree.
    auto fairness = [](L3Policy policy) {
        TenantArena arena(figureConfig(ArenaMode::Throughput, policy,
                                       {"em3d", "health"},
                                       2'000'000));
        return arena.run();
    };
    const ArenaResult open = fairness(L3Policy::Unpartitioned);
    const ArenaResult fenced = fairness(L3Policy::WayClustered);
    EXPECT_LT(fenced.unfairness, open.unfairness);
    EXPECT_GT(fenced.jainFairness, open.jainFairness);
}

// ---------------------------------------------------------------
// Determinism and makespan arithmetic.
// ---------------------------------------------------------------

TEST(Arena, RerunIsBitwiseDeterministic)
{
    // Each tenant's fiber runs only inside its own turns, so
    // arbitration is a pure function of the schedule and two runs
    // must agree to the last bit and the last miss.
    auto runOnce = [] {
        TenantArena arena(figureConfig(ArenaMode::Throughput,
                                       L3Policy::WayClustered,
                                       {"em3d", "health"}, 200'000));
        return arena.run();
    };
    const ArenaResult a = runOnce();
    const ArenaResult b = runOnce();
    EXPECT_EQ(a.makespanCycles, b.makespanCycles);
    EXPECT_EQ(a.sharedL3Accesses, b.sharedL3Accesses);
    EXPECT_EQ(a.sharedL3Misses, b.sharedL3Misses);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (size_t i = 0; i < a.tenants.size(); ++i) {
        EXPECT_EQ(a.tenants[i].refs, b.tenants[i].refs);
        EXPECT_EQ(a.tenants[i].cycles, b.tenants[i].cycles);
        EXPECT_EQ(a.tenants[i].turns, b.tenants[i].turns);
        EXPECT_EQ(a.tenants[i].p99TurnCycles,
                  b.tenants[i].p99TurnCycles);
    }
}

TEST(Arena, DestroyWithoutRunIsClean)
{
    // Construction probes the tenants and builds their machines but
    // starts no fiber: there is no stream to unwind, and the sanitizer
    // CI jobs check that nothing leaks on the way out.
    for (const ArenaMode mode :
         {ArenaMode::Migration, ArenaMode::Throughput}) {
        TenantArena arena(figureConfig(mode, L3Policy::WayClustered,
                                       {"mst", "bisort"}, 100'000));
        EXPECT_EQ(arena.probes().size(), 2u);
        EXPECT_FALSE(arena.clusters().empty());
    }
}

TEST(Arena, MigrationMakespanIsSumOfTenantCycles)
{
    TenantArena arena(figureConfig(ArenaMode::Migration,
                                   L3Policy::Unpartitioned,
                                   {"mst", "bisort"}, 200'000));
    const ArenaResult r = arena.run();
    double sum = 0;
    for (const TenantResult &t : r.tenants)
        sum += t.cycles;
    EXPECT_NEAR(r.makespanCycles, sum, 1e-6 * sum)
        << "time-sharing: makespan = sum of turns";
}

TEST(Arena, ThroughputMakespanIsMaxOfTenantCycles)
{
    TenantArena arena(figureConfig(ArenaMode::Throughput,
                                   L3Policy::Unpartitioned,
                                   {"mst", "bisort"}, 200'000));
    const ArenaResult r = arena.run();
    double peak = 0;
    for (const TenantResult &t : r.tenants)
        peak = std::max(peak, t.cycles);
    EXPECT_NEAR(r.makespanCycles, peak, 1e-6 * peak)
        << "space-sharing: makespan = slowest resident";
}

TEST(Arena, AdmissionBeyondResidentLimitCompletesEveryTenant)
{
    ArenaConfig cfg = figureConfig(ArenaMode::Throughput,
                                   L3Policy::Unpartitioned,
                                   {"mst", "bisort", "em3d"},
                                   150'000);
    cfg.sched.maxResident = 2;
    TenantArena arena(cfg);
    const ArenaResult r = arena.run();
    ASSERT_EQ(r.tenants.size(), 3u);
    for (const TenantResult &t : r.tenants) {
        EXPECT_GT(t.turns, 0u) << t.benchmark;
        EXPECT_GT(t.refs, 0u) << t.benchmark;
        // Completion = start + cycles; a tenant admitted late still
        // finishes inside the makespan.
        EXPECT_LE(t.cycles, r.makespanCycles * (1 + 1e-9))
            << t.benchmark;
    }
}

// ---------------------------------------------------------------
// Golden digests: every result field and every journal byte.
// ---------------------------------------------------------------

/** FNV-1a 64 over the eight little-endian bytes of `v`. */
uint64_t
fnvMix(uint64_t hash, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (v >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

uint64_t
fnvMix(uint64_t hash, double v)
{
    return fnvMix(hash, std::bit_cast<uint64_t>(v));
}

/** Digest of every ArenaResult / TenantResult field and the journal. */
uint64_t
arenaDigest(const ArenaResult &r, const obs::Journal &journal)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    hash = fnvMix(hash, r.makespanCycles);
    hash = fnvMix(hash, r.aggregateIpc);
    hash = fnvMix(hash, r.weightedSpeedup);
    hash = fnvMix(hash, r.unfairness);
    hash = fnvMix(hash, r.jainFairness);
    hash = fnvMix(hash, r.sharedL3Accesses);
    hash = fnvMix(hash, r.sharedL3Misses);
    for (const TenantResult &t : r.tenants) {
        for (const char ch : t.benchmark)
            hash = fnvMix(hash, static_cast<uint64_t>(ch));
        hash = fnvMix(hash, t.instructions);
        hash = fnvMix(hash, t.refs);
        hash = fnvMix(hash, t.l2Misses);
        hash = fnvMix(hash, t.l3Accesses);
        hash = fnvMix(hash, t.l3Misses);
        hash = fnvMix(hash, t.migrations);
        hash = fnvMix(hash, t.turns);
        hash = fnvMix(hash, t.cycles);
        hash = fnvMix(hash, t.soloCycles);
        hash = fnvMix(hash, t.slowdown);
        hash = fnvMix(hash, t.p50TurnCycles);
        hash = fnvMix(hash, t.p95TurnCycles);
        hash = fnvMix(hash, t.p99TurnCycles);
        hash = fnvMix(hash, static_cast<uint64_t>(t.cluster));
        hash = fnvMix(hash, static_cast<uint64_t>(t.clusterWays));
    }
    for (const char ch : journal.renderJsonl()) {
        hash ^= static_cast<unsigned char>(ch);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

uint64_t
runDigest(const ArenaConfig &cfg)
{
    obs::Journal journal;
    TenantArena arena(cfg);
    arena.attachJournal(&journal);
    const ArenaResult r = arena.run();
    return arenaDigest(r, journal);
}

/** The fig1 experiment's three (mode, policy) arms, in its cell order. */
constexpr std::pair<ArenaMode, L3Policy> kArms[] = {
    {ArenaMode::Migration, L3Policy::Unpartitioned},
    {ArenaMode::Throughput, L3Policy::Unpartitioned},
    {ArenaMode::Throughput, L3Policy::WayClustered},
};

/*
 * Every digest below was recorded from the arena that fed each tenant
 * from a producer thread through a bounded chunk queue, the design
 * the per-session fibers replaced. The fibers must reproduce every
 * accessBatch split, every turn and every journal byte.
 */

TEST(ArenaGolden, Figure1PairsUnderEveryArm)
{
    struct Case
    {
        std::vector<const char *> pair;
        uint64_t digest[3];
    };
    const Case cases[] = {
        {{"179.art", "181.mcf"},
         {0xcc4fb1e8ed221d2full, 0xbb77e026b22d6e7aull,
          0xbb77e026b22d6e7aull}},
        {{"179.art", "188.ammp"},
         {0x8cd21e9ed831ef94ull, 0x640711c1caf90724ull,
          0x640711c1caf90724ull}},
        {{"em3d", "health"},
         {0xd548a4df3dee89bbull, 0xc2fd471c0b7ed009ull,
          0xe400a53c9f774f5bull}},
        {{"181.mcf", "164.gzip"},
         {0xc1fc6984ae9bcbe5ull, 0x3c4ca76b7637ba8bull,
          0x3c4ca76b7637ba8bull}},
    };
    for (const Case &c : cases) {
        for (size_t a = 0; a < 3; ++a) {
            EXPECT_EQ(runDigest(figureConfig(kArms[a].first,
                                             kArms[a].second, c.pair,
                                             300'000)),
                      c.digest[a])
                << c.pair[0] << "+" << c.pair[1] << " arm " << a;
        }
    }
}

TEST(ArenaGolden, QuadUnderEveryArm)
{
    const std::vector<const char *> quad = {"bisort", "mst",
                                            "300.twolf",
                                            "255.vortex"};
    const uint64_t digest[3] = {0x0cdcaf2a75717fa2ull,
                                0x65241777f6b370b5ull,
                                0xd26cd036ce6cecffull};
    for (size_t a = 0; a < 3; ++a) {
        EXPECT_EQ(runDigest(figureConfig(kArms[a].first,
                                         kArms[a].second, quad,
                                         200'000)),
                  digest[a])
            << "arm " << a;
    }
}

TEST(ArenaGolden, AdmissionBeyondResidentLimit)
{
    ArenaConfig cfg = figureConfig(ArenaMode::Throughput,
                                   L3Policy::Unpartitioned,
                                   {"mst", "bisort", "em3d"}, 150'000);
    cfg.sched.maxResident = 2;
    EXPECT_EQ(runDigest(cfg), 0xfcc3d68f33506818ull);
}

TEST(ArenaGolden, DeficitRoundRobin)
{
    // A quantum that is not a multiple of the 64-ref chunk, so turns
    // end mid-chunk and the next turn resumes inside it.
    ArenaConfig cfg = figureConfig(ArenaMode::Throughput,
                                   L3Policy::WayClustered,
                                   {"em3d", "health"}, 200'000);
    cfg.sched.policy = SchedPolicy::DeficitRoundRobin;
    cfg.sched.quantumRefs = 3000;
    cfg.sched.weights = {1, 3};
    EXPECT_EQ(runDigest(cfg), 0x0746f639c97c55f6ull);
}

/** Counts a workload's references. */
class CountingSink : public RefSink
{
  public:
    void access(const MemRef &) override { ++refs; }
    uint64_t refs = 0;
};

TEST(ArenaGolden, StreamEndingOnQuantumBoundaryGetsZeroFedTurn)
{
    // mst's stream is an exact multiple of the quantum, so its last
    // non-empty turn consumes the budget to the last reference. The
    // arena cannot know the stream ended until the next turn, which
    // feeds nothing and retires the tenant.
    const uint64_t instr = 160'000;
    const uint64_t quantum = 4815; // 231'120 refs = 48 quanta
    CountingSink counter;
    makeWorkload("mst")->run(counter, instr, 42);
    ASSERT_EQ(counter.refs % quantum, 0u) << counter.refs;

    ArenaConfig cfg = figureConfig(ArenaMode::Throughput,
                                   L3Policy::Unpartitioned,
                                   {"mst", "bisort"}, instr);
    cfg.sched.quantumRefs = quantum;
    obs::Journal journal;
    TenantArena arena(cfg);
    arena.attachJournal(&journal);
    const ArenaResult r = arena.run();
    ASSERT_EQ(r.tenants[0].refs, counter.refs);
    EXPECT_EQ(r.tenants[0].turns, counter.refs / quantum + 1);
    int64_t lastFed = -1;
    for (size_t i = 0; i < journal.size(); ++i) {
        const obs::JournalEvent &e = journal.eventAt(i);
        if (e.kind == obs::JournalKind::TenantTurn && e.arg[0] == 0)
            lastFed = e.arg[1];
    }
    EXPECT_EQ(lastFed, 0) << "the retiring turn feeds nothing";
    EXPECT_EQ(arenaDigest(r, journal), 0x94913401a4c45766ull);
}

// ---------------------------------------------------------------
// Observability contracts.
// ---------------------------------------------------------------

TEST(Arena, ResultCarriesOrderedTurnPercentiles)
{
    TenantArena arena(figureConfig(ArenaMode::Throughput,
                                   L3Policy::Unpartitioned,
                                   {"mst", "bisort"}, 200'000));
    const ArenaResult r = arena.run();
    for (const TenantResult &t : r.tenants) {
        EXPECT_GT(t.p50TurnCycles, 0.0) << t.benchmark;
        EXPECT_LE(t.p50TurnCycles, t.p95TurnCycles) << t.benchmark;
        EXPECT_LE(t.p95TurnCycles, t.p99TurnCycles) << t.benchmark;
        EXPECT_GT(t.clusterWays, 0u) << t.benchmark;
        EXPECT_GT(t.slowdown, 0.0) << t.benchmark;
    }
}

TEST(Arena, MetricsRegistryExportsTenantsAndClusters)
{
    TenantArena arena(figureConfig(ArenaMode::Throughput,
                                   L3Policy::Unpartitioned,
                                   {"mst", "bisort"}, 150'000));
    arena.run();
    obs::MetricsRegistry registry;
    arena.registerMetrics(registry, "arena");
    const std::string jsonl = registry.renderJsonl();
    EXPECT_NE(jsonl.find("arena.tenant0."), std::string::npos);
    EXPECT_NE(jsonl.find("arena.tenant1."), std::string::npos);
    EXPECT_NE(jsonl.find("arena.tenant0.turn_cycles"),
              std::string::npos);
    EXPECT_NE(jsonl.find("arena.l3.cluster0."), std::string::npos);
    // The per-tenant turn histogram is what carries p50/p95/p99 into
    // the export (the acceptance contract for latency percentiles).
    EXPECT_NE(jsonl.find("\"p99\""), std::string::npos);
}

TEST(Arena, JournalRecordsTenantLifecycle)
{
    obs::Journal journal;
    TenantArena arena(figureConfig(ArenaMode::Throughput,
                                   L3Policy::Unpartitioned,
                                   {"mst", "bisort"}, 150'000));
    arena.attachJournal(&journal);
    arena.run();
    const std::string jsonl = journal.renderJsonl();
    EXPECT_NE(jsonl.find("tenant_admit"), std::string::npos);
    EXPECT_NE(jsonl.find("tenant_turn"), std::string::npos);
    EXPECT_NE(jsonl.find("tenant_finish"), std::string::npos);
    EXPECT_NE(jsonl.find("tenant_partition"), std::string::npos);
    EXPECT_NE(jsonl.find("\"cause\":\"tenant\""), std::string::npos);
}

// ---------------------------------------------------------------
// Scheduler unit mechanics.
// ---------------------------------------------------------------

TEST(TenantScheduler, ColocationOrderInterleavesHeavyAndLight)
{
    // mpki per tenant: 0→5, 1→50, 2→1, 3→20. Sorted heavy-first:
    // 1, 3, 0, 2; the interleave alternates ends: 1, 2, 3, 0.
    const std::vector<TenantProbe> probes = {
        probeWithMpki(5), probeWithMpki(50), probeWithMpki(1),
        probeWithMpki(20)};
    TenantSchedConfig cfg;
    cfg.maxResident = 4;
    TenantScheduler sched(cfg, probes);
    EXPECT_EQ(sched.admitNext(), 1u);
    EXPECT_EQ(sched.admitNext(), 2u);
    EXPECT_EQ(sched.admitNext(), 3u);
    EXPECT_EQ(sched.admitNext(), 0u);
    EXPECT_EQ(sched.admitNext(), TenantScheduler::kNone);
    EXPECT_EQ(sched.colocationScore(1), 50.0);
}

TEST(TenantScheduler, AdmissionHonorsResidentLimit)
{
    const std::vector<TenantProbe> probes = {
        probeWithMpki(1), probeWithMpki(2), probeWithMpki(3)};
    TenantSchedConfig cfg;
    cfg.maxResident = 2;
    TenantScheduler sched(cfg, probes);
    EXPECT_NE(sched.admitNext(), TenantScheduler::kNone);
    EXPECT_NE(sched.admitNext(), TenantScheduler::kNone);
    EXPECT_EQ(sched.admitNext(), TenantScheduler::kNone)
        << "both slots taken";
    EXPECT_EQ(sched.residentCount(), 2u);
    EXPECT_EQ(sched.waitingCount(), 1u);
    EXPECT_FALSE(sched.allFinished());
}

TEST(TenantScheduler, RotationSkipsFinishedTenantCleanly)
{
    const std::vector<TenantProbe> probes = {
        probeWithMpki(3), probeWithMpki(2), probeWithMpki(1)};
    TenantSchedConfig cfg;
    cfg.maxResident = 3;
    TenantScheduler sched(cfg, probes);
    // Heavy-first interleave on 3,2,1: order 0, 2, 1.
    EXPECT_EQ(sched.admitNext(), 0u);
    EXPECT_EQ(sched.admitNext(), 2u);
    EXPECT_EQ(sched.admitNext(), 1u);
    EXPECT_EQ(sched.nextTurn(), 0u);
    EXPECT_EQ(sched.nextTurn(), 2u);
    // Retiring a tenant behind the cursor keeps the rotation aimed
    // at the same successor.
    sched.onFinish(2);
    EXPECT_EQ(sched.nextTurn(), 1u);
    EXPECT_EQ(sched.nextTurn(), 0u);
    sched.onFinish(0);
    sched.onFinish(1);
    EXPECT_TRUE(sched.allFinished());
    EXPECT_EQ(sched.nextTurn(), TenantScheduler::kNone);
}

TEST(TenantScheduler, DeficitRoundRobinGrantsWeightedBudgets)
{
    const std::vector<TenantProbe> probes = {probeWithMpki(2),
                                             probeWithMpki(2)};
    TenantSchedConfig cfg;
    cfg.policy = SchedPolicy::DeficitRoundRobin;
    cfg.quantumRefs = 100;
    cfg.weights = {1, 3};
    TenantScheduler sched(cfg, probes);
    ASSERT_NE(sched.admitNext(), TenantScheduler::kNone);
    ASSERT_NE(sched.admitNext(), TenantScheduler::kNone);
    EXPECT_EQ(sched.nextTurn(), 0u);
    EXPECT_EQ(sched.turnBudget(0), 100u);
    EXPECT_EQ(sched.nextTurn(), 1u);
    EXPECT_EQ(sched.turnBudget(1), 300u) << "weight 3 → 3 quanta";
    // Unused budget carries over as deficit.
    sched.onTurnEnd(0, 40);
    EXPECT_EQ(sched.nextTurn(), 0u);
    EXPECT_EQ(sched.turnBudget(0), 160u) << "60 leftover + 100 fresh";
    // Overdraw clamps to zero rather than underflowing.
    sched.onTurnEnd(0, 1'000'000);
    EXPECT_EQ(sched.nextTurn(), 1u);
    sched.onTurnEnd(1, 300);
    EXPECT_EQ(sched.nextTurn(), 0u);
    EXPECT_EQ(sched.turnBudget(0), 100u);
}

// ---------------------------------------------------------------
// Appetite classification and way clustering.
// ---------------------------------------------------------------

TEST(Clustering, AppetiteThresholdsAreInclusive)
{
    EXPECT_EQ(classifyAppetite(probeWithMpki(0.5), 1.0, 30.0),
              CacheAppetite::Light);
    EXPECT_EQ(classifyAppetite(probeWithMpki(1.0), 1.0, 30.0),
              CacheAppetite::Light);
    EXPECT_EQ(classifyAppetite(probeWithMpki(15.0), 1.0, 30.0),
              CacheAppetite::Sensitive);
    EXPECT_EQ(classifyAppetite(probeWithMpki(30.0), 1.0, 30.0),
              CacheAppetite::Thrashing);
    TenantProbe idle;
    EXPECT_EQ(idle.missesPerKiloInstr(), 0.0)
        << "zero instructions must not divide by zero";
}

TEST(Clustering, SingleClassPopulationDegeneratesToUnpartitioned)
{
    const std::vector<TenantProbe> allLight = {
        probeWithMpki(0.1), probeWithMpki(0.2), probeWithMpki(0.3)};
    const std::vector<ClusterSpec> clusters =
        clusterTenants(allLight, 16);
    ASSERT_EQ(clusters.size(), 1u);
    EXPECT_EQ(clusters[0].ways, 16u);
    EXPECT_EQ(clusters[0].tenants,
              (std::vector<unsigned>{0, 1, 2}));
}

TEST(Clustering, MixedClassesJailThrashersAndProtectSensitive)
{
    // t0 thrashes (50), t1 is light (0.5), t2/t3 are sensitive
    // (10 and 5): jail 2 ways, light 2 ways, the remaining 12 split
    // 8/4 proportionally to appetite.
    const std::vector<TenantProbe> probes = {
        probeWithMpki(50), probeWithMpki(0.5), probeWithMpki(10),
        probeWithMpki(5)};
    const std::vector<ClusterSpec> clusters =
        clusterTenants(probes, 16);
    ASSERT_EQ(clusters.size(), 4u);
    EXPECT_EQ(clusters[0].ways, 2u);
    EXPECT_EQ(clusters[0].tenants, (std::vector<unsigned>{0}));
    EXPECT_EQ(clusters[1].ways, 2u);
    EXPECT_EQ(clusters[1].tenants, (std::vector<unsigned>{1}));
    EXPECT_EQ(clusters[2].ways, 8u);
    EXPECT_EQ(clusters[2].tenants, (std::vector<unsigned>{2}));
    EXPECT_EQ(clusters[3].ways, 4u);
    EXPECT_EQ(clusters[3].tenants, (std::vector<unsigned>{3}));
    unsigned total = 0;
    size_t covered = 0;
    for (const ClusterSpec &c : clusters) {
        total += c.ways;
        covered += c.tenants.size();
    }
    EXPECT_EQ(total, 16u);
    EXPECT_EQ(covered, probes.size());
}

TEST(Clustering, SingleWayCacheCannotBePartitioned)
{
    const std::vector<TenantProbe> probes = {probeWithMpki(50),
                                             probeWithMpki(0.5)};
    const std::vector<ClusterSpec> clusters =
        clusterTenants(probes, 1);
    ASSERT_EQ(clusters.size(), 1u);
    EXPECT_EQ(clusters[0].ways, 1u);
    EXPECT_EQ(clusters[0].tenants, (std::vector<unsigned>{0, 1}));
}

// ---------------------------------------------------------------
// Fairness metrics.
// ---------------------------------------------------------------

TEST(Fairness, UnfairnessIsMaxOverMin)
{
    EXPECT_EQ(unfairness({}), 1.0);
    EXPECT_EQ(unfairness({2.0, 2.0}), 1.0);
    EXPECT_EQ(unfairness({1.0, 3.0}), 3.0);
    EXPECT_EQ(unfairness({0.0, -1.0, 2.0, 4.0}), 2.0)
        << "non-positive slowdowns are ignored";
}

TEST(Fairness, JainIndexMatchesClosedForm)
{
    EXPECT_EQ(jainFairnessIndex({}), 1.0);
    EXPECT_EQ(jainFairnessIndex({2.0, 2.0, 2.0}), 1.0);
    // rates 1 and 1/3: (4/3)^2 / (2 * 10/9) = 0.8.
    EXPECT_NEAR(jainFairnessIndex({1.0, 3.0}), 0.8, 1e-12);
}

} // namespace
} // namespace xmig
