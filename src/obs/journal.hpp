/**
 * @file
 * xmig-lens causal event journal: a deterministic flight recorder.
 *
 * The Journal records every decision-relevant event of one simulated
 * machine — migrations with the A_R / transition-filter values at
 * decision time, split and re-split transitions, fault injections,
 * watchdog vetoes and reinits, checkpoint/restore, coherence scrubs —
 * into a compact bounded ring of fixed-size binary records stamped
 * with *simulated* time (post-L1 references). Because the journal is
 * owned by one machine and written only from that machine's sweep
 * cell, its exports are a pure function of (seed, config, fault
 * plan): byte-identical at any `--jobs`. It is the only event stream:
 * `--journal-out` writes it as JSONL and `--trace-out` renders the
 * same events as a Chrome trace_event document (renderChromeTrace).
 *
 * Cost model: every emission site is wrapped in the XMIG_JOURNAL
 * macro, which tests one pointer before doing any work — an
 * unjournaled machine pays a predictable null-check branch on the
 * (already rare) event paths and skips evaluating the arguments. The
 * `journal-in-hot-loop` xmig_lint rule statically enforces that
 * simulation code never calls the Journal directly.
 *
 * Post-mortem: journals with a dump path registered (see setDumpPath)
 * are flushed automatically when XMIG_PANIC fires — i.e. on any
 * XMIG_ASSERT / XMIG_AUDIT failure — and when the livelock watchdog
 * trips, so the causal history leading into a crash is preserved.
 *
 * Thread-safety: like FaultInjector, a Journal instance is
 * single-thread confined to its sweep cell — confinement, not
 * locking, is the thread-safety story (docs/analysis.md). Only the
 * process-wide dump registry behind the panic hook takes a lock.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xmig::obs {

/** What happened. One enumerator per decision-relevant event. */
enum class JournalKind : uint8_t {
    Migration,        ///< execution moved cores: {from, to, n, ar, filter}
    MigrationVeto,    ///< watchdog refused a request: {target, ar, filter}
    MigrationDrop,    ///< fabric lost the request: {target}
    MigrationDelay,   ///< fabric delayed delivery: {target, delay}
    MigrationTimeout, ///< in-flight request timed out: {target, backoff}
    MigrationRetry,   ///< timed-out request re-issued: {target, retries}
    Transition,       ///< subset changed: {subset, ae, filter, ar}
    NodeFlip,         ///< k-way node filter flipped: {node, level, filter}
    Resplit,          ///< topology rebuilt: {ways, live_mask, gap}
    ForcedMigration,  ///< active core died: {from, to}
    CoreOff,          ///< core left the live mask: {core, dirty_lost}
    CoreOn,           ///< core rejoined the live mask: {core}
    FaultInject,      ///< injector fired: {site, tick}
    FilterReinit,     ///< watchdog reset all filters: {at}
    WatchdogTrip,     ///< livelock detected: {migrations, cooldown}
    Checkpoint,       ///< state captured: {refs}
    Restore,          ///< state restored: {refs}
    CoherenceScrub,   ///< update-bus scrub pass: {repairs, tick}
    ShadowDisarm,     ///< shadow oracle disarmed: {refs}
    TenantAdmit,      ///< arena admitted a tenant: {tenant, slot, score}
    TenantTurn,       ///< scheduler granted a quantum: {tenant, refs, cycles}
    TenantFinish,     ///< tenant retired its budget: {tenant, refs, cycles}
    TenantPartition,  ///< shared-L3 cluster assigned: {tenant, cluster, ways}
    kCount
};

/** Why it happened — the causal tag on each event. */
enum class JournalCause : uint8_t {
    None,           ///< no finer cause than the kind itself
    Threshold,      ///< A_R / filter threshold crossing (normal path)
    FabricDelivery, ///< delayed request finally delivered
    FaultForced,    ///< consequence of an injected fault
    WatchdogVeto,   ///< watchdog cooldown suppressed it
    WatchdogReinit, ///< watchdog-requested filter reinit
    Livelock,       ///< ping-pong livelock detection
    PlanEvent,      ///< scheduled by the fault plan
    Explicit,       ///< explicit API call (checkpoint(), restore())
    Tenant,         ///< multi-tenant arena scheduling decision
    kCount
};

/** Stable lowercase name for JSONL export ("migration", ...). */
const char *journalKindName(JournalKind kind);
/** Stable lowercase name for JSONL export ("threshold", ...). */
const char *journalCauseName(JournalCause cause);
/** Per-kind argument names, nullptr-terminated, at most 5 entries. */
const char *const *journalArgNames(JournalKind kind);

/** One fixed-size binary journal record. */
struct JournalEvent
{
    uint64_t seq;     ///< 0-based global sequence number
    uint64_t time;    ///< simulated time (post-L1 references)
    int64_t arg[5];   ///< payload, named per-kind (journalArgNames)
    JournalKind kind;
    JournalCause cause;
};

/**
 * Bounded ring of JournalEvents ("flight recorder").
 *
 * Past capacity() events the oldest record is overwritten and counted
 * in dropped(); seq numbers keep increasing so the export records the
 * truncation honestly.
 */
class Journal
{
  public:
    explicit Journal(size_t capacity = 65536);
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /** Advance the simulated-time clock stamped onto new events. */
    void setClock(uint64_t t) { clock_ = t; }
    uint64_t clock() const { return clock_; }

    /** Append one event (the only write path; see XMIG_JOURNAL). */
    void record(JournalKind kind, JournalCause cause, int64_t a = 0,
                int64_t b = 0, int64_t c = 0, int64_t d = 0,
                int64_t e = 0);

    /** Events currently held in the ring. */
    size_t size() const;
    /** Total events ever recorded (size() + dropped()). */
    uint64_t recorded() const { return recorded_; }
    /** Events overwritten after the ring filled. */
    uint64_t dropped() const;
    size_t capacity() const { return capacity_; }

    /** i-th oldest event still in the ring (0 <= i < size()). */
    const JournalEvent &eventAt(size_t i) const;

    /** Forget all events (clock and dump path are kept). */
    void clear();

    /**
     * Arm post-mortem dumping: on XMIG_PANIC or a watchdog incident
     * the journal writes its JSONL to `path`. Empty disarms.
     */
    void setDumpPath(std::string path);
    const std::string &dumpPath() const { return dumpPath_; }

    /**
     * Write the JSONL to the dump path immediately, appending a
     * final "incident" header line naming `reason`. Returns false
     * when no dump path is armed or the write fails.
     */
    bool dumpNow(const char *reason) const;

    /**
     * Render the journal as JSONL: one header line (capacity,
     * recorded, dropped), then one line per retained event, oldest
     * first. Every line is a complete JSON object.
     */
    std::string renderJsonl() const;

    /**
     * Render the retained events as one Chrome trace_event document
     * (chrome://tracing, ui.perfetto.dev) on the simulated-time axis:
     * one instant per event (name = kind, cat = cause, args named by
     * journalArgNames), an `active_core` counter sample after every
     * migration / forced_migration, and a `coherence_repairs` counter
     * (cumulative over the retained scrubs) after every
     * coherence_scrub. recorded/dropped land in otherData.
     */
    std::string renderChromeTrace() const;

  private:
    size_t capacity_;
    std::vector<JournalEvent> ring_;
    uint64_t recorded_ = 0;
    uint64_t clock_ = 0;
    std::string dumpPath_;
};

} // namespace xmig::obs

/**
 * Record a causal event on a (possibly null) Journal pointer:
 *   XMIG_JOURNAL(journal_, JournalKind::Migration,
 *                JournalCause::Threshold, from, to, n, ar, filter);
 * Costs one null-check branch when no journal is attached.
 */
#define XMIG_JOURNAL(journal_ptr, ...) \
    do { \
        if (::xmig::obs::Journal *xj_lens_ = (journal_ptr)) \
            xj_lens_->record(__VA_ARGS__); \
    } while (0)

/** Advance the simulated-time clock of the journal. */
#define XMIG_JOURNAL_CLOCK(journal_ptr, t) \
    do { \
        if (::xmig::obs::Journal *xj_lens_ = (journal_ptr)) \
            xj_lens_->setClock(static_cast<uint64_t>(t)); \
    } while (0)

/** Flush the journal to its dump path on a non-fatal incident. */
#define XMIG_JOURNAL_INCIDENT(journal_ptr, reason) \
    do { \
        if (::xmig::obs::Journal *xj_lens_ = (journal_ptr)) \
            xj_lens_->dumpNow(reason); \
    } while (0)
