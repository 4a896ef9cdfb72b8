/**
 * @file
 * The migration controller (section 3).
 *
 * The controller monitors the L1-miss request stream of the active
 * core, runs the working-set splitter over it, and decides when and
 * where to migrate execution. With L2 filtering enabled (section
 * 3.4), the affinity machinery advances on every L1 miss but the
 * transition filters — and therefore the migration target — can only
 * change on an L2 miss.
 *
 * xmig-iron extends the controller with a resilience layer:
 *
 *  - **topology**: cores can go offline/online at run time
 *    (setCoreOffline / setCoreOnline). The controller keeps a live
 *    mask and splits across the largest power-of-two subset of the
 *    survivors, rebuilding the splitter (and a fresh O_e store — the
 *    retired store's affinities are relative to retired Delta
 *    registers) whenever the split arity changes. Splitter subsets
 *    map to live cores through `subsetToCore_`.
 *
 *  - **migration fabric faults**: with a FaultPlan targeting
 *    mig_drop / mig_delay, an ordered migration becomes an in-flight
 *    request that can be delayed or silently dropped; a timeout
 *    declares it lost and retries under exponential backoff. Without
 *    such a plan the classic instantaneous path is taken, bit-
 *    identically to a build without fault hooks.
 *
 *  - **watchdog**: an opt-in fault/watchdog.hpp instance vetoes
 *    migrations during livelock cooldowns and re-initializes the
 *    transition filters when the split degenerates.
 *
 *  - **checkpoint/restore**: the full control-plane state can be
 *    captured and restored (crash recovery); see checkpoint().
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/kway_splitter.hpp"
#include "core/oe_store.hpp"
#include "fault/watchdog.hpp"
#include "obs/journal.hpp"
#include "obs/registry.hpp"

namespace xmig {

/** Timeout/backoff parameters of the lossy migration fabric. */
struct MigrationRetryConfig
{
    /** Requests after which an unacknowledged migration is lost. */
    uint64_t timeoutRequests = 64;
    /** Initial retry backoff, in requests; doubles per timeout. */
    uint64_t backoffBase = 32;
    /** Backoff ceiling. */
    uint64_t backoffCap = 8192;
};

/** Complete configuration of a migration controller. */
struct MigrationControllerConfig
{
    /**
     * Number of cores to split across: a power of two from 2 to 64.
     * Every count runs through the recursive splitter (KWaySplitter)
     * at depth log2(numCores); depths 1 and 2 are the paper's 2-way
     * and section 3.6 4-way structures, deeper trees realize the
     * section 6 conjecture.
     */
    unsigned numCores = 4;

    unsigned affinityBits = 16;
    /** |R| of the whole-working-set mechanism; tree level l uses
     *  windowX / 2^l (section 3.6's |R_Y| = |R_X| / 2). */
    size_t windowX = 128;
    WindowKind window = WindowKind::Fifo;
    ArKind ar = ArKind::Exact;

    /** Filter width: 20 bits in section 4.1, 18 in section 4.2. */
    unsigned filterBits = 20;

    /** H(e) sampling cutoff: 31 = track all lines, 8 = 25 %. */
    uint32_t samplingCutoff = 31;

    /** Update the transition filter only on L2 misses (section 3.4). */
    bool l2Filtering = false;

    /**
     * Update the transition filter only on pointer-load requests
     * (section 6): restricts migration triggers to the linked-data-
     * structure accesses whose misses are the most expensive.
     * Composes with l2Filtering (both conditions must hold).
     */
    bool pointerLoadFilter = false;

    /** Use a finite affinity cache instead of unlimited storage. */
    bool boundedStore = false;
    AffinityCacheConfig affinityCache;

    /**
     * Arm the shadow-model oracle (shadow_audit.hpp) on the
     * whole-working-set mechanism: the O(|S|) DirectAffinityEngine
     * runs in lockstep and panics on the first divergence. With a
     * finite affinity cache or narrow affinity widths the oracle
     * disarms itself (warn once) at the first eviction or
     * saturation rather than false-alarming. An injected fault that
     * touches the audited mechanism also disarms it — corruption the
     * controller *knowingly* caused is not a model divergence.
     */
    bool shadowAudit = false;
    uint64_t shadowDeepCheckEvery = 4096;

    /**
     * xmig-iron fault hook (non-owning; may be null). Drives soft
     * errors in the engines (Ae/Delta/Ar), O_e store corruption, and
     * the lossy migration fabric.
     */
    FaultInjector *faults = nullptr;

    /** Livelock/degenerate-split watchdog (disabled by default). */
    WatchdogConfig watchdog;

    /** Migration retry/backoff tuning (used only under fault plans). */
    MigrationRetryConfig retry;
};

/** Aggregate controller statistics. */
struct MigrationStats
{
    uint64_t requests = 0;      ///< L1-miss requests observed
    uint64_t filterUpdates = 0; ///< requests that updated a filter
    uint64_t transitions = 0;   ///< subset-index changes
    uint64_t migrations = 0;    ///< active-core changes ordered
};

/** Degradation / self-healing event counts (xmig-iron). */
struct RecoveryStats
{
    uint64_t coresLost = 0;         ///< accepted core_off events
    uint64_t coresJoined = 0;       ///< accepted core_on events
    uint64_t resplits = 0;          ///< splitter rebuilds (arity change)
    uint64_t forcedMigrations = 0;  ///< active core died under execution
    uint64_t storeCorruptions = 0;  ///< injected O_e bit flips landed
    uint64_t storeDrops = 0;        ///< injected tag kills landed
    uint64_t migDropped = 0;        ///< migration requests lost in fabric
    uint64_t migDelayed = 0;        ///< migration requests delayed
    uint64_t migTimeouts = 0;       ///< in-flight requests timed out
    uint64_t migRetries = 0;        ///< re-issues after timeout+backoff
    uint64_t filterReinits = 0;     ///< watchdog filter re-inits applied
};

/**
 * Checkpointed control-plane state (see checkpoint()). An in-flight
 * (delayed) migration is not part of the record: checkpointing
 * quiesces the fabric, and a restore resumes with an idle fabric and
 * reset backoff. Watchdog dynamics (cooldown, windows) restart too.
 */
struct ControllerCheckpoint
{
    unsigned numCores = 0;
    unsigned splitWays = 0;
    uint64_t liveMask = 0;
    unsigned activeCore = 0;
    MigrationStats stats;
    RecoveryStats recovery;
    /** Engine/filter states in the tree's heap order. */
    std::vector<EngineCheckpoint> engines;
    std::vector<FilterCheckpoint> filters;
    std::vector<OeEntrySnapshot> storeEntries;
    OeStoreStats storeStats;
};

/**
 * Decides when and where to migrate execution.
 */
class MigrationController
{
  public:
    explicit MigrationController(const MigrationControllerConfig &config);

    /**
     * Present one post-L1 request for `line`.
     *
     * @param l2_miss whether the request missed the active core's L2
     *        (meaningful only with L2 filtering)
     * @param pointer_load whether the request came from a pointer
     *        load (meaningful only with pointerLoadFilter)
     * @return the core that should be active after this request; a
     *         change relative to the previous value is a migration
     */
    unsigned onRequest(uint64_t line, bool l2_miss = true,
                       bool pointer_load = true);

    /** One pre-decoded post-L1 request for onRequestBatch(). */
    struct Request
    {
        uint64_t line = 0;
        bool l2Miss = true;
        bool pointerLoad = true;
    };

    /**
     * Present a run of `n` requests; returns the active core after
     * the last one — the xmig-bolt batch entry point for consumers
     * that drive the controller directly (bench kernels, splitter
     * studies, traces with precomputed miss bits). The machine's
     * event loop cannot use it: each request's `l2Miss` bit comes
     * from probing the L2 of the core that is active *after* the
     * previous request's migration decision, a loop-carried
     * dependency (docs/parallelism.md, "batching").
     */
    unsigned onRequestBatch(const Request *reqs, size_t n);

    /** Core the controller currently maps the execution to. */
    unsigned activeCore() const { return activeCore_; }

    /** Subset the splitter currently selects. */
    unsigned subset() const;

    const MigrationStats &stats() const { return stats_; }
    const MigrationControllerConfig &config() const { return config_; }
    const OeStore &store() const { return *store_; }

    /**
     * Current affinity A_e = O_e - Delta of a line as the root
     * mechanism sees it, if tracked (snapshots, tests). Nullopt while
     * a lone live core leaves no splitter.
     */
    std::optional<int64_t> affinityOf(uint64_t line) const;

    /** Transition counts of the underlying splitter. */
    uint64_t splitterTransitions() const;

    /**
     * Register controller, O_e-store, and splitter state under
     * `prefix` (xmig-scope): `<prefix>.requests`, `.filter_updates`,
     * `.transitions`, `.migrations`, `.active_core`, the store's
     * `.store.*` counters, the splitter tree under `.splitter.*`,
     * recovery counters under `.recovery.*`, and — if the watchdog
     * is enabled — `.watchdog.*`.
     */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) const;

    /**
     * Shadow oracle of the audited mechanism (the tree root);
     * nullptr unless shadowAudit was set.
     */
    const ShadowAudit *shadowAudit() const;

    /** Whole-working-set mechanism (the tree root, X in the paper). */
    const AffinityEngine &rootEngine() const;

    /** Whole-working-set transition filter. */
    const TransitionFilter &rootFilter() const;

    // ---- xmig-iron resilience interface ----------------------------

    /**
     * Hot-unplug a core. Its subset load is re-split across the
     * surviving cores; if the execution was on the lost core it is
     * force-migrated to the lowest live core. Taking the last live
     * core offline is refused with a warning.
     */
    void setCoreOffline(unsigned core);

    /** Hot-plug a core back; the splitter re-expands when possible. */
    void setCoreOnline(unsigned core);

    /** Bitmask of live cores. */
    uint64_t liveMask() const { return liveMask_; }

    /** Number of live cores. */
    unsigned liveCores() const;

    /** Current split arity (largest power of two <= live cores). */
    unsigned splitWays() const { return splitWays_; }

    /** Live core a splitter subset currently maps to. */
    unsigned coreForSubset(unsigned subset) const;

    const RecoveryStats &recovery() const { return recovery_; }
    const Watchdog &watchdog() const { return watchdog_; }

    /** Zero every transition filter (watchdog re-init path). */
    void resetFilters();

    /**
     * Attach the xmig-lens causal journal (non-owning; null detaches).
     * Propagated to the live splitter's engines, the watchdog, and the
     * armed fault injector, and re-propagated across resplits and
     * restores. All emission sites are rare paths behind the
     * XMIG_JOURNAL macro, so attachment costs nothing per request.
     */
    void attachJournal(obs::Journal *journal);

    /** Requests between consecutive splitter rebuilds (xmig-lens). */
    const obs::Histogram &resplitGapHistogram() const
    {
        return resplitGap_;
    }

    /** Capture the control-plane state (crash-recovery support). */
    ControllerCheckpoint checkpoint() const;

    /**
     * Restore a checkpoint taken from a controller with the same
     * configuration. The splitter is rebuilt at the checkpointed
     * arity and its engine/filter/store state reloaded; shadow
     * oracles disarm (their lockstep history is gone). The record is
     * trusted: a tampered engine state is caught by the paranoid
     * audits on subsequent requests, not here.
     */
    void restore(const ControllerCheckpoint &ckpt);

  private:
    std::unique_ptr<OeStore> makeStore() const;
    void buildSplitter(unsigned ways);
    void recomputeMapping();
    void applyTopology();
    void retireSplitter();
    void injectStoreFaults();
    void disarmRootShadow(const char *reason);
    void serviceMigrationFabric(uint64_t now);
    void requestMigration(unsigned target, uint64_t now);
    void completeMigration(unsigned target, uint64_t now,
                           obs::JournalCause cause);
    /** A_R / root-filter values for journal payloads (0 if no root). */
    int64_t rootArForJournal() const;
    int64_t rootFilterForJournal() const;

    MigrationControllerConfig config_;
    std::unique_ptr<OeStore> store_;
    /** Null only while a lone live core leaves nothing to split. */
    std::unique_ptr<KWaySplitter> splitter_;
    unsigned activeCore_ = 0;
    MigrationStats stats_;

    // Topology / recovery state.
    uint64_t liveMask_ = 0;
    unsigned splitWays_ = 0;
    std::vector<unsigned> subsetToCore_;
    RecoveryStats recovery_;
    Watchdog watchdog_;
    /** stats_.transitions at the last splitter rebuild; keeps the
     *  transitions==splitterTransitions() audit exact across
     *  resplits and restores. */
    uint64_t transitionsBase_ = 0;

    // xmig-lens: causal journal hook and resplit-cadence distribution.
    obs::Journal *journal_ = nullptr;
    obs::Histogram resplitGap_;
    uint64_t lastResplitAt_ = 0; ///< stats_.requests at the last resplit

    // Retired splitters/stores: registered metric gauges hold
    // references into them, so a resplit parks rather than frees.
    std::vector<std::unique_ptr<OeStore>> retiredStores_;
    std::vector<std::unique_ptr<KWaySplitter>> retiredSplitters_;

    // Migration fabric state (engaged only under mig_drop/mig_delay
    // fault plans; otherwise migrations complete instantaneously).
    bool pendingValid_ = false;
    unsigned pendingTarget_ = 0;
    uint64_t pendingIssued_ = 0;
    uint64_t pendingDue_ = 0; ///< UINT64_MAX: dropped, will time out
    uint64_t nextIssueAllowed_ = 0;
    uint64_t backoff_ = 0;
    bool retryPending_ = false; ///< next issue counts as a retry
};

} // namespace xmig
