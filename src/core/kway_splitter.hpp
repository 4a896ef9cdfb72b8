/**
 * @file
 * The working-set splitter: recursive k-way splitting (k = 2^depth)
 * over a complete binary tree of 2-way mechanisms.
 *
 * A 2-way mechanism (sections 3.2-3.4) is an affinity engine plus a
 * transition filter: the *sign of the filter*, not of the raw
 * affinity, names the half a referenced line belongs to. The tree
 * has one mechanism per internal node. The root splits the whole
 * working-set; the node at path p (a sign string) splits the subset
 * selected by p. Which node a sampled line drives is chosen by
 * H(e) mod depth, so every tree level receives a share of the
 * sampled lines. All nodes share one O_e store, and a node's
 * R-window is |R_root| / 2^level.
 *
 * Depth 1 is the paper's 2-way splitter. Depth 2 is exactly its
 * section 3.6 4-way structure: heap nodes 0/1/2 are X/Y[+1]/Y[-1],
 * odd residues drive X and even residues drive Y[sign(F_X)], and
 * |R_Y| = |R_X| / 2. Deeper trees realize the paper's conjecture
 * (section 6) that the scheme adapts to more cores.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/transition_filter.hpp"

namespace xmig {

/**
 * Register a transition filter's live state under `prefix`
 * (xmig-scope): `<prefix>.value`, `.transitions`, `.updates`,
 * `.saturated`.
 */
void registerFilterMetrics(obs::MetricsRegistry &registry,
                           const std::string &prefix,
                           const TransitionFilter &filter);

/** Capture one transition filter's state (checkpoint.hpp). */
inline FilterCheckpoint
checkpointFilter(const TransitionFilter &filter)
{
    return {filter.value(), filter.transitions(), filter.updates()};
}

/** Restore one transition filter from a checkpoint. */
inline void
restoreFilter(TransitionFilter &filter, const FilterCheckpoint &ckpt)
{
    filter.restore(ckpt.value, ckpt.transitions, ckpt.updates);
}

/** Outcome of presenting one reference to a splitter. */
struct SplitDecision
{
    unsigned subset = 0;     ///< subset index after the update
    bool transition = false; ///< the subset index changed
    bool sampled = false;    ///< line participated in affinity tracking
    int64_t ae = 0;          ///< A_e used (0 when not sampled)
};

/**
 * Recursive splitter for 2^depth subsets.
 */
class KWaySplitter
{
  public:
    struct Config
    {
        unsigned depth = 3; ///< 2^depth subsets (1 => 2-way, 3 => 8-way)
        unsigned affinityBits = 16;
        size_t rootWindow = 128; ///< |R| of the root mechanism
        WindowKind window = WindowKind::Fifo;
        ArKind ar = ArKind::Exact;
        unsigned filterBits = 20;
        /** Track lines with H(e) < cutoff; 31 disables sampling. */
        uint32_t samplingCutoff = 31;

        /**
         * Arm the shadow-model oracle on the root mechanism. Only
         * the root is shadowable: its lines always drive it, while
         * deeper nodes swap lines as the sign path above them moves,
         * leaving O_e values no single-engine reference model can
         * predict.
         */
        bool shadowAudit = false;

        /** Soft-error hook shared by all tree nodes (xmig-iron). */
        FaultInjector *faults = nullptr;
    };

    KWaySplitter(const Config &config, OeStore &store);

    /**
     * Present a reference.
     * @param update_filter false implements L2 filtering: the engine
     *        state advances but the filters (and hence the subset)
     *        cannot change.
     */
    SplitDecision onReference(uint64_t line, bool update_filter = true);

    /**
     * Current subset in [0, 2^depth): the root-to-leaf path of filter
     * signs, root first, one bit per level (1 = negative).
     */
    unsigned subset() const { return subset_; }

    unsigned numSubsets() const { return 1u << config_.depth; }
    uint64_t transitions() const { return transitions_; }

    /** Mechanisms allocated (2^depth - 1 internal tree nodes). */
    size_t numMechanisms() const { return nodes_.size(); }

    /** Root mechanism (the only shadow-auditable one; see Config). */
    const AffinityEngine &rootEngine() const { return *nodes_[0].engine; }
    AffinityEngine &rootEngine() { return *nodes_[0].engine; }

    /** Transition filter of heap node `node` (0 = root). */
    const TransitionFilter &filter(size_t node) const
    {
        return nodes_[node].filter;
    }

    /** Root transition filter (the whole-working-set split). */
    const TransitionFilter &rootFilter() const { return filter(0); }

    /** Zero every node's filter (watchdog re-initialization). */
    void resetFilters();

    /** Append engine/filter state in heap (tree-index) order. */
    void checkpoint(std::vector<EngineCheckpoint> &engines,
                    std::vector<FilterCheckpoint> &filters) const;

    /** Restore state captured by checkpoint() (sizes must match). */
    void restore(const std::vector<EngineCheckpoint> &engines,
                 const std::vector<FilterCheckpoint> &filters);

    /**
     * Register every tree node's mechanism under `prefix`:
     * `<prefix>.nodeN.{engine,filter}.*` in heap order.
     */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) const;

    /**
     * Attach the xmig-lens journal (may be null): forwarded to every
     * node's engine, and used by onReference to record node filter
     * flips (JournalKind::NodeFlip) on the rare transition branch.
     */
    void attachJournal(obs::Journal *journal);

  private:
    /** One tree node: a 2-way mechanism. */
    struct Node
    {
        std::unique_ptr<AffinityEngine> engine;
        TransitionFilter filter;
    };

    /**
     * Tree index of the node on the current sign path at `level`
     * (level 0 = root). Heap indexing: children of i are 2i+1
     * (filter positive) and 2i+2 (negative), so the path node is
     * 2^level - 1 plus the subset's top `level` bits.
     */
    size_t
    nodeOnPath(unsigned level) const
    {
        return (size_t(1) << level) - 1 +
               (subset_ >> (config_.depth - level));
    }

    /** Walk the filter signs from the root to recompute the subset. */
    unsigned walkSubset() const;

    Config config_;
    /** Heap-ordered complete binary tree; never resized after
     *  construction (registered metrics point into it). */
    std::vector<Node> nodes_;
    /** Tree level driven by each hash residue H(e) < 31. */
    std::array<uint8_t, 31> levelOf_{};
    /** Cached walkSubset(); only a filter flip, reset or restore
     *  moves it. */
    unsigned subset_ = 0;
    uint64_t transitions_ = 0;
    obs::Journal *journal_ = nullptr; ///< xmig-lens hook (may be null)
};

} // namespace xmig
