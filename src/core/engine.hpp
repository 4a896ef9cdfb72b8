/**
 * @file
 * The postponed-update affinity engine — Figure 2 of the paper.
 *
 * One engine realizes one 2-way splitting mechanism: it owns an
 * R-window, the running Delta, and the incremental window affinity
 * A_R, and shares an OeStore (the affinity cache) with sibling
 * mechanisms. Per reference it performs O(1) work:
 *
 *   O_e  = affinity_cache.lookup(e)        (miss: O_e = Delta)
 *   A_e  = O_e - Delta
 *   I_e  = O_e - 2 Delta                   (e enters R)
 *   O_f  = I_f + 2 Delta                   (f leaves R; written back)
 *   A_R += O_e - O_f
 *   Delta += sign(A_R)
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/checkpoint.hpp"
#include "core/oe_store.hpp"
#include "core/rwindow.hpp"
#include "util/saturating.hpp"

namespace xmig::obs {
class Journal;
class MetricsRegistry;
} // namespace xmig::obs

namespace xmig {

class FaultInjector;
class ShadowAudit;

/**
 * How the window affinity A_R is maintained.
 *
 * Definition 1 makes every member's A_e drift by sign(A_R) each
 * reference, so the true A_R = sum of member affinities also moves by
 * |R|*sign(A_R) per step. The Figure-2 register update
 * A_R += O_e - O_f captures entry/exit exactly but not that drift;
 * it is the literal hardware datapath. Exact instead tracks
 * sum(I_e) over the window and computes A_R = sum(I_e) + |R|*Delta,
 * which equals Definition 1's sum at every step and is still O(1).
 */
enum class ArKind : uint8_t
{
    Exact,   ///< A_R == Definition 1's sum of member affinities
    Figure2, ///< the paper's literal register recurrence
};

/** Static parameters of one affinity engine. */
struct EngineConfig
{
    unsigned affinityBits = 16; ///< bits[O_e] = bits[I_e]
    size_t windowSize = 128;    ///< |R|
    WindowKind window = WindowKind::Fifo;
    ArKind ar = ArKind::Exact;

    /**
     * Run the shadow-model oracle (shadow_audit.hpp): a lockstep
     * DirectAffinityEngine that panics on divergence. Off by default
     * (zero overhead).
     */
    bool shadowAudit = false;

    /**
     * With the shadow armed, compare the affinity of *every* tracked
     * element each N references (0 disables the deep sweeps and
     * keeps only the per-reference A_e / A_R comparison).
     */
    uint64_t shadowDeepCheckEvery = 4096;

    /** Diagnostic tag naming this engine in shadow-audit messages. */
    const char *shadowTag = "engine";

    /**
     * xmig-iron soft-error hook: when non-null and the plan targets
     * Ae / Delta / Ar, reference() may flip a bit of the respective
     * register after the normal update. Null (the default) costs one
     * predictable branch.
     */
    FaultInjector *faults = nullptr;
};

/** Result of processing one reference. */
struct RefOutcome
{
    int64_t ae = 0;    ///< A_e(t) of the referenced line, pre-update
    bool inWindow = false; ///< DistinctLru only: e was already in R
};

/**
 * One 2-way working-set splitting mechanism (postponed update).
 */
class AffinityEngine
{
  public:
    /**
     * @param config engine parameters
     * @param store shared O_e storage (affinity cache); must outlive
     *        the engine
     */
    AffinityEngine(const EngineConfig &config, OeStore &store);
    ~AffinityEngine(); // = default; here for the ShadowAudit pimpl

    /**
     * Process a reference to `line`; returns its affinity A_e(t).
     * The engine's one reference path: every window kind, A_R
     * recurrence, shadow oracle and fault hook runs through it.
     */
    RefOutcome reference(uint64_t line);

    /** Current Delta value. */
    int64_t delta() const { return delta_.get(); }

    /** Current window affinity A_R. */
    int64_t windowAffinity() const { return windowAffinity_.get(); }

    /**
     * Current affinity of `line`: I_e + Delta if in the window,
     * O_e - Delta if in the store, nullopt if unknown. O(|R|) in the
     * FIFO case; snapshot/test use only.
     */
    std::optional<int64_t> affinityOf(uint64_t line) const;

    /** References processed. */
    uint64_t references() const { return references_; }

    const EngineConfig &config() const { return config_; }
    const OeStore &store() const { return store_; }

    /** The shadow-model oracle (nullptr unless shadowAudit). */
    const ShadowAudit *shadow() const { return shadow_.get(); }

    /**
     * Disarm the shadow oracle with a reason (no-op when off or
     * already disarmed). Used when an *external* actor knowingly
     * departs from the reference model: injected store corruption,
     * state restored from a checkpoint.
     */
    void disarmShadow(const char *reason);

    /** Capture the architectural engine state (checkpoint.hpp). */
    EngineCheckpoint checkpoint() const;

    /**
     * Restore a checkpoint taken from an engine with the same config.
     * The shadow oracle, if armed, is disarmed: its lockstep history
     * no longer matches. The checkpoint is trusted — a tampered
     * sumIe is *not* revalidated here, the paranoid A_R-drift audit
     * catches it on the next reference.
     */
    void restore(const EngineCheckpoint &ckpt);

    /**
     * Record this engine's current state under `prefix` (xmig-scope):
     * `<prefix>.references`, `.delta`, `.window_affinity`,
     * `.window_occupancy`.
     */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) const;

    /**
     * Attach the xmig-lens causal journal (non-owning; may be null).
     * The engine records rare-path events only — external shadow
     * disarms — so an attached journal costs nothing per reference.
     */
    void attachJournal(obs::Journal *journal) { journal_ = journal; }

  private:
    int64_t saturate(int64_t v) const;

    /** O(|R|) paranoid check that the cached sum(I_e) has not drifted. */
    void auditWindowSum(size_t members) const;

    /** Apply armed Ae/Delta/Ar bit flips to this reference's outcome. */
    void injectSoftErrors(RefOutcome &out);

    EngineConfig config_;
    OeStore &store_;
    SatInt delta_;          ///< bits[Delta] = bits[O_e] + 1
    SatInt windowAffinity_; ///< bits[A_R] = bits[O_e] + log2 |R|
    int64_t sumIe_ = 0;     ///< ArKind::Exact: sum of window I_e
    std::unique_ptr<FifoWindow> fifo_;
    std::unique_ptr<DistinctLruWindow> lru_;
    std::unique_ptr<ShadowAudit> shadow_;
    obs::Journal *journal_ = nullptr; ///< xmig-lens hook (may be null)
    uint64_t references_ = 0;
};

} // namespace xmig
