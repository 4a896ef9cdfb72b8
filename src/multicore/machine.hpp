/**
 * @file
 * The migration-mode multi-core machine of section 2.
 *
 * Structure (Figure 1): each core has 16-KB IL1/DL1 and a private
 * 512-KB L2; an L3 is shared by all cores. In migration mode a single
 * sequential program runs on one *active* core at a time and may
 * migrate; L1 contents are mirrored across cores via broadcast fills
 * (so the machine models the L1 level as one shared filter — exactly
 * equivalent), and L2 coherence follows the modified-bit rules of
 * section 2.1:
 *
 *  - a store on the active core sets its copy's modified bit and
 *    *resets* (not invalidates) the modified bit of inactive copies,
 *    whose values the update bus keeps coherent;
 *  - at most one copy of a line is modified at any time;
 *  - a modified remote copy can be forwarded on an L2 miss (counted
 *    like an L3 hit, per the paper's penalty assumption), and is
 *    simultaneously written back to L3 with its modified bit reset;
 *  - a non-modified remote copy cannot be forwarded; the line is
 *    re-fetched from L3;
 *  - an evicted line is written back to L3 only if modified.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/l1_filter.hpp"
#include "cache/prefetcher.hpp"
#include "core/migration_controller.hpp"
#include "fault/fault_injector.hpp"
#include "mem/ref.hpp"

namespace xmig {

/** Machine configuration (defaults = the section 4.2 setup). */
struct MachineConfig
{
    /**
     * 1 disables migration (baseline single core); any power of two
     * up to 64 enables it. Every count runs the one recursive k-way
     * splitter (core/kway_splitter.hpp): depth 1 and 2 are exactly the
     * paper's 2- and 4-way structures, deeper trees generalize them.
     */
    unsigned numCores = 4;

    uint64_t lineBytes = 64;

    uint64_t il1Bytes = 16 * 1024;
    uint64_t dl1Bytes = 16 * 1024;
    unsigned l1Ways = 4;

    uint64_t l2Bytes = 512 * 1024;
    unsigned l2Ways = 4;
    bool l2Skewed = true;

    /**
     * Shared L3 capacity; 0 models a perfect (always-hitting) L3,
     * which is all the paper's experiments need — Table 2 counts L2
     * misses and never sizes the L3. A finite value adds the L3
     * hit/miss and memory-traffic accounting.
     */
    uint64_t l3Bytes = 0;
    unsigned l3Ways = 16;

    /**
     * Non-owning shared L3 (xmig-arena): when set, the machine routes
     * its L3 traffic through this caller-owned cache instead of
     * building a private one (l3Bytes is then ignored), so N tenant
     * machines contend for one finite capacity. The caller keeps the
     * cache alive for the machine's lifetime and drives every sharing
     * machine from a single thread — the arena's consumer — which is
     * the thread-safety story (confinement, docs/analysis.md).
     * Checkpoints cover only machine-owned state; arena code
     * snapshots the shared cache itself if it needs to.
     */
    Cache *sharedL3 = nullptr;

    MigrationControllerConfig controller = defaultController();

    /**
     * Optional L2 prefetcher (section 6 extension): observes the
     * post-L1 stream and fills candidates into the active core's L2.
     */
    PrefetcherConfig prefetch;

    /**
     * xmig-iron fault plan (fault_plan.hpp grammar); empty = no
     * faults. Parsed at construction; a multi-core machine then owns
     * a FaultInjector shared with its controller and engines. On a
     * single-core machine a plan is ignored with a warning.
     */
    std::string faultPlan;

    /** Section 4.2 controller settings. */
    static MigrationControllerConfig
    defaultController()
    {
        MigrationControllerConfig c;
        c.numCores = 4;
        c.affinityBits = 16;
        c.windowX = 128;
        c.filterBits = 18;
        c.samplingCutoff = 8; // 25 % working-set sampling
        c.l2Filtering = true;
        c.boundedStore = true;
        c.affinityCache.entries = 8 * 1024;
        c.affinityCache.ways = 4;
        c.affinityCache.skewed = true;
        return c;
    }
};

/** Event counts for one machine run. */
struct MachineStats
{
    uint64_t instructions = 0;
    uint64_t refs = 0;
    uint64_t l1Misses = 0;
    uint64_t l2Accesses = 0;
    uint64_t l2Misses = 0;
    uint64_t l2ToL2Forwards = 0; ///< subset of l2Misses served remotely
    uint64_t l3Writebacks = 0;
    uint64_t migrations = 0;
    uint64_t updateBusStores = 0; ///< stores broadcast to inactive L2s
    uint64_t prefetchFills = 0;   ///< prefetched lines installed in L2
    uint64_t prefetchUseful = 0;  ///< ...later consumed by a demand hit
    uint64_t l3Accesses = 0;      ///< finite-L3 mode only
    uint64_t l3Misses = 0;        ///< L3 misses (off-chip fetches)
    uint64_t memoryWritebacks = 0; ///< dirty L3 evictions

    // xmig-iron fault / recovery events.
    uint64_t coreOffEvents = 0;    ///< cores hot-unplugged
    uint64_t coreOnEvents = 0;     ///< cores hot-plugged back
    uint64_t dirtyLinesLost = 0;   ///< modified L2 lines lost to unplug
    uint64_t busDrops = 0;         ///< update-bus broadcasts lost
    uint64_t coherenceRepairs = 0; ///< stale modified bits scrubbed
};

/**
 * Checkpointed machine state (crash-recovery support). Captures the
 * architectural contents of the L2s and L3 ({line, modified} sets)
 * and the controller's control plane. The L1 filter and all cache
 * replacement ages are *not* captured: a restore models a reboot
 * with cold L1s, so the continuation is control-plane-exact but not
 * cycle-identical for finite caches (see docs/robustness.md).
 */
struct MachineCheckpoint
{
    struct LineState
    {
        uint64_t line = 0;
        bool modified = false;
    };

    MachineStats stats;
    unsigned activeCore = 0;
    std::vector<std::vector<LineState>> l2Contents; ///< per core
    std::vector<LineState> l3Contents;
    bool hasController = false;
    ControllerCheckpoint controller;
};

/**
 * Trace-driven migration-mode machine.
 *
 * Feed it MemRefs through accessBatch() (a workload drives it through
 * a ChunkFeed, multicore/feed.hpp); it filters them through the
 * (mirrored) L1 level, consults the migration controller on every L1
 * miss, migrates the active core when told to, and maintains the
 * per-core L2s under the migration-mode coherence rules. L3 is modeled as a backing store
 * that always hits (the paper counts L2 misses and never sizes L3).
 */
class MigrationMachine
{
  public:
    explicit MigrationMachine(const MachineConfig &config);

    /** Process one reference: accessBatch() over a run of one. */
    void access(const MemRef &ref) { accessBatch(&ref, 1); }

    /**
     * Batch granularity of accessBatch(): long enough to amortize the
     * per-chunk bookkeeping, short enough that the chunk's MemRefs,
     * events, and prefix counts all live in L1 (K * ~40 bytes ≈ 2.5
     * KB). Measured flat from 32 to 128 on the Table-1 workloads;
     * see docs/parallelism.md.
     */
    static constexpr size_t kBatchRefs = 64;

    /**
     * Process a run of `n` references — the machine's one reference
     * path. Each K-ref chunk filters through the L1 level in one
     * tight loop, then the (sparse) post-L1 events are processed in
     * order with stats_.refs / stats_.instructions set to their
     * per-reference values before every event, so how a stream is
     * split into calls cannot change any journal stamp or result
     * (docs/parallelism.md, "batching"). At chunk end the counters,
     * the L1 state and the journal clock stand where the last
     * reference left them. An armed fault plan runs one-reference
     * chunks, each behind its injector tick, because injector ticks
     * are defined per reference.
     */
    void accessBatch(const MemRef *refs, size_t n);

    const MachineStats &stats() const { return stats_; }
    unsigned activeCore() const { return activeCore_; }

    /**
     * Zero the event counters, every cache level's counters and the
     * inter-migration gap histogram (machine state — cache contents,
     * controller training — is preserved). Use to exclude warm-up
     * from measurements, approximating the paper's
     * 1-billion-instruction runs where warm-up is negligible.
     */
    void resetStats();
    const MachineConfig &config() const { return config_; }

    const Cache &l2(unsigned core) const { return *l2s_[core]; }
    const L1Filter &l1() const { return *l1_; }

    /**
     * The L3 this machine's traffic lands in: the caller's shared
     * cache when config.sharedL3 is set, the private one when
     * l3Bytes > 0, nullptr in perfect-L3 mode.
     */
    const Cache *l3() const { return l3view_; }

    /** True when the L3 is caller-owned (config.sharedL3). */
    bool sharesL3() const { return config_.sharedL3 != nullptr; }

    /** Controller access (null when numCores == 1). */
    const MigrationController *controller() const
    {
        return controller_.get();
    }

    /** Fault injector (null unless a fault plan is armed). */
    const FaultInjector *injector() const { return injector_.get(); }

    /** Capture the architectural machine state (crash recovery). */
    MachineCheckpoint checkpoint() const;

    /**
     * Restore a checkpoint taken from a machine with the same
     * geometry. Cache contents are rebuilt (replacement ages reset),
     * the controller control plane is reloaded exactly, and the L1
     * filter stays as-is — restore into a freshly built machine for
     * the cold-L1 crash-recovery semantics the tests rely on.
     */
    void restore(const MachineCheckpoint &ckpt);

    /**
     * Audit the coherence invariant: returns the number of lines with
     * more than one modified copy across L2s (must be 0).
     */
    uint64_t countMultiModifiedLines() const;

    /**
     * Register every machine counter under `prefix` (xmig-scope):
     * the MachineStats fields, per-level cache stats
     * (`<prefix>.il1.*`, `.dl1.*`, `.core<i>.l2.*`, `.l3.*`), and
     * the controller tree under `<prefix>.controller.*`.
     */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) const;

    /**
     * Attach the xmig-lens journal (non-owning; may be null) to this
     * machine and everything below it (controller, splitter engines,
     * watchdog, fault injector). The machine drives the journal clock
     * in post-L1 references — the timeline of both --journal-out and
     * --trace-out — and records the machine-level events (migrations
     * with distance, core churn, coherence scrubs).
     */
    void attachJournal(obs::Journal *journal);

    /** Distances (in refs) between consecutive migrations. */
    const obs::Histogram &interMigrationGapHistogram() const
    {
        return interMigrationGap_;
    }

  private:
    /** Handle one post-L1 event of an accessBatch() chunk. */
    void processLine(const LineEvent &event);

    /** Drain and apply core hot-(un)plug events from the injector. */
    void applyCoreEvents();

    /**
     * Repair stale modified bits left behind by dropped update-bus
     * broadcasts: for every line with multiple modified copies, keep
     * the active core's copy (else the lowest core's) and write the
     * stale ones back to L3.
     */
    void scrubCoherence();

    /**
     * Handle the L2-level request on the (post-decision) active core.
     * `slots` is the line's candidate frames in every L2 and `probe`
     * the active core's find(line, slots), so the migration decision,
     * the access and the remote-copy probes share one hash of the line.
     */
    void accessL2(uint64_t line, const Cache::Slots &slots, uint32_t probe,
                  bool is_store);

    /** Store visibility on inactive copies (update bus, section 2.1). */
    void broadcastStore(uint64_t line, const Cache::Slots &slots);

    /** Run the prefetcher and fill candidates into the active L2. */
    void issuePrefetches(uint64_t line, bool miss);

    /** Fetch a line from the (finite) L3; counts memory traffic. */
    void fetchFromL3(uint64_t line);

    /** Write a dirty line back into the (finite) L3. */
    void writebackToL3(uint64_t line);

    MachineConfig config_;
    NullLineSink noSink_; ///< l1_'s sink, never called
    std::unique_ptr<L1Filter> l1_;
    // accessBatch()'s chunk buffers. Members rather than locals:
    // LineEvent's member initializers would otherwise zero all
    // kBatchRefs entries on every chunk.
    LineEvent events_[kBatchRefs];
    uint32_t evRef_[kBatchRefs];
    uint32_t evInstr_[kBatchRefs];
    std::vector<std::unique_ptr<Cache>> l2s_;
    std::unique_ptr<Cache> l3_;
    Cache *l3view_ = nullptr; ///< shared or owned L3 (null = perfect)
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<MigrationController> controller_;
    std::unique_ptr<Prefetcher> prefetcher_;
    std::vector<uint64_t> prefetchCandidates_; ///< scratch buffer
    std::vector<CoreFaultEvent> coreEventScratch_;
    unsigned activeCore_ = 0;
    uint64_t auditTick_ = 0; ///< paranoid coherence-sweep cadence
    uint64_t scrubTick_ = 0; ///< bus-drop coherence-scrub cadence
    bool busFaulty_ = false; ///< plan targets the update bus
    bool warnedUnknownCore_ = false; ///< a plan named a missing core
    obs::Journal *journal_ = nullptr; ///< xmig-lens hook (may be null)
    obs::Histogram interMigrationGap_; ///< refs between migrations
    uint64_t lastMigrationRef_ = 0;
    MachineStats stats_;
};

/**
 * Register one cache's counters (`<prefix>.accesses`, `.hits`,
 * `.misses`, `.writebacks`, `.occupancy`). Machines use it for their
 * private levels; the arena uses it to register a shared L3 once.
 */
void registerCacheMetrics(obs::MetricsRegistry &registry,
                          const std::string &prefix,
                          const Cache &cache);

} // namespace xmig
