/**
 * @file
 * xmig-arena tenant scheduler: admission, co-location scoring, turn
 * arbitration, and shared-L3 partitioning policies.
 *
 * The paper's Figure 1 frames the choice this chip faces: run one
 * program in *migration mode* over the aggregate L2, or pack N
 * programs in *throughput mode* and let them contend for the shared
 * cache. Either way some component must decide which programs run
 * together and how the shared level is carved up. This file supplies
 * that component, with policies grounded in the follow-on literature
 * (PAPERS.md): LFOC-style fairness-oriented way-clustering — classify
 * tenants by cache appetite from a solo probe, jail the thrashing
 * ones in a small cluster, give sensitive ones protected clusters —
 * and a co-location order in the spirit of Hassidim/Kaplan/Tuval's
 * joint cache-partition + job-assignment formulation (pair
 * cache-hungry tenants with light ones rather than with each other).
 *
 * Everything here is deterministic: decisions are pure functions of
 * the probe measurements and the configuration, with index-order
 * tie-breaks, so an arena run is byte-identical at any --jobs.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace xmig {

/** Solo-probe measurement of one tenant's cache appetite. */
struct TenantProbe
{
    uint64_t instructions = 0;
    uint64_t refs = 0;
    uint64_t l2Misses = 0; ///< misses out of the private L2, alone
    uint64_t l3Misses = 0; ///< misses out of the whole L3, alone
    double soloCycles = 0; ///< stall-model cycles for the probe run

    /** L2 misses per thousand instructions — the appetite score. */
    double
    missesPerKiloInstr() const
    {
        if (instructions == 0)
            return 0.0;
        return 1000.0 * static_cast<double>(l2Misses) /
               static_cast<double>(instructions);
    }
};

/** LFOC-style appetite classes (light / sensitive / thrashing). */
enum class CacheAppetite : uint8_t
{
    Light,     ///< working set fits; indifferent to L3 share
    Sensitive, ///< benefits from protected L3 space
    Thrashing, ///< streams through any share it is given
};

/**
 * Classify a probe by its miss density: below `light_mpki` → Light,
 * above `thrash_mpki` → Thrashing, Sensitive in between.
 */
CacheAppetite classifyAppetite(const TenantProbe &probe,
                               double light_mpki, double thrash_mpki);

/** Shared-L3 capacity policies swept by bench_figure1. */
enum class L3Policy : uint8_t
{
    Unpartitioned, ///< one cache, free-for-all contention
    WayClustered,  ///< LFOC-style way clusters per appetite class
};

const char *l3PolicyName(L3Policy policy);

/** One way-cluster of the shared L3 and the tenants mapped to it. */
struct ClusterSpec
{
    unsigned ways = 0;
    std::vector<unsigned> tenants; ///< tenant indices, ascending
};

/**
 * Partition `total_ways` L3 ways over the probed tenants,
 * LFOC-style: thrashing tenants share one minimal cluster (they
 * cannot use more), light tenants share a small cluster, and the
 * remaining ways are split between sensitive tenants proportionally
 * to their appetite. Always returns at least one cluster covering
 * every tenant; a single-class population degenerates to one cluster
 * of all ways (== unpartitioned).
 */
std::vector<ClusterSpec>
clusterTenants(const std::vector<TenantProbe> &probes,
               unsigned total_ways, double light_mpki = 1.0,
               double thrash_mpki = 30.0);

/** Scheduler configuration. */
struct TenantSchedConfig
{
    /** Core slots: tenants resident at once (rest wait to be admitted). */
    unsigned maxResident = 4;

    /** References granted per turn. */
    uint64_t quantumRefs = 4096;
};

/**
 * Admission + round-robin turn arbitration over N tenants.
 *
 * Admission order is the co-location order: tenants sorted by
 * appetite are admitted heaviest-first alternating with lightest-
 * first, so every resident mix pairs cache-hungry tenants with light
 * co-runners instead of with each other. Turns cycle over residents
 * in admission order, each worth quantumRefs references.
 */
class TenantScheduler
{
  public:
    static constexpr unsigned kNone = ~0u;

    TenantScheduler(TenantSchedConfig config,
                    const std::vector<TenantProbe> &probes);

    /** Tenants not yet admitted. */
    size_t waitingCount() const { return waiting_.size(); }
    /** Admitted, unfinished tenants. */
    size_t residentCount() const { return residents_.size(); }
    bool allFinished() const;

    /**
     * Admit the next tenant in co-location order, if a slot is free.
     * Returns its index, or kNone when none waits or no slot is free.
     */
    unsigned admitNext();

    /** Co-location score used for the admission order (mpki). */
    double colocationScore(unsigned tenant) const;

    /**
     * Resident tenant owning the next turn, or kNone when none are
     * resident. Cycles in admission order; a fresh admission enters
     * the rotation after the current position.
     */
    unsigned nextTurn();

    /** Reference budget of every turn. */
    uint64_t quantumRefs() const { return config_.quantumRefs; }

    /** Retire `tenant`: frees its slot; admits nothing by itself. */
    void onFinish(unsigned tenant);

  private:
    TenantSchedConfig config_;
    std::vector<double> scores_;      ///< mpki per tenant
    std::vector<unsigned> waiting_;   ///< co-location order, front next
    std::vector<unsigned> residents_; ///< admission order
    std::vector<bool> finished_;
    size_t rrCursor_ = 0;
};

/**
 * Unfairness of a set of per-tenant slowdowns: max/min (1.0 =
 * perfectly fair). Empty or non-positive inputs yield 1.0.
 */
double unfairness(const std::vector<double> &slowdowns);

/**
 * Jain fairness index over normalized progress rates (1/slowdown):
 * (sum x)^2 / (n * sum x^2), in (0, 1], 1.0 = perfectly fair.
 */
double jainFairnessIndex(const std::vector<double> &slowdowns);

} // namespace xmig
