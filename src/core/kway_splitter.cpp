#include "core/kway_splitter.hpp"

#include "obs/journal.hpp"
#include "util/hashing.hpp"
#include "util/contracts.hpp"

namespace xmig {

KWaySplitter::KWaySplitter(const Config &config, OeStore &store)
    : config_(config)
{
    XMIG_ASSERT(config.depth >= 1 && config.depth <= 6,
                "depth %u out of range", config.depth);
    const size_t num_nodes = (size_t(1) << config.depth) - 1;
    nodes_.reserve(num_nodes);
    for (size_t i = 0; i < num_nodes; ++i) {
        // Level of heap node i is floor(log2(i+1)).
        unsigned level = 0;
        for (size_t v = i + 1; v > 1; v >>= 1)
            ++level;
        EngineConfig ec;
        ec.affinityBits = config.affinityBits;
        ec.windowSize =
            std::max<size_t>(4, config.rootWindow >> level);
        ec.window = config.window;
        ec.ar = config.ar;
        if (i == 0) {
            ec.shadowAudit = config.shadowAudit;
            ec.shadowTag = "root";
        }
        ec.faults = config.faults;
        nodes_.push_back({std::make_unique<AffinityEngine>(ec, store),
                          TransitionFilter(config.filterBits)});
    }
    // Spread sampled residues over the tree levels. The offset makes
    // depth 2 reproduce section 3.6 exactly: odd residues drive the
    // root (X), even ones the selected second-level node
    // (Y[sign(F_X)]).
    for (uint32_t h = 0; h < levelOf_.size(); ++h)
        levelOf_[h] = static_cast<uint8_t>((h + config.depth - 1) %
                                           config.depth);
}

unsigned
KWaySplitter::walkSubset() const
{
    unsigned bits = 0;
    size_t idx = 0;
    for (unsigned l = 0; l < config_.depth; ++l) {
        const bool negative = nodes_[idx].filter.side() < 0;
        bits = (bits << 1) | (negative ? 1u : 0u);
        idx = 2 * idx + (negative ? 2 : 1);
    }
    return bits;
}

SplitDecision
KWaySplitter::onReference(uint64_t line, bool update_filter)
{
    SplitDecision out;
    const uint32_t h = hashMod31(line);
    out.sampled = h < config_.samplingCutoff;
    if (out.sampled) {
        const unsigned level = levelOf_[h];
        const size_t idx = nodeOnPath(level);
        XMIG_AUDIT(idx < nodes_.size(),
                   "k-way path node %zu of %zu nodes", idx,
                   nodes_.size());
        Node &node = nodes_[idx];
        out.ae = node.engine->reference(line).ae;
        if (update_filter && node.filter.update(out.ae)) {
            // A flip on the current path toggles that level's subset
            // bit, so it is always a transition.
            out.transition = true;
            ++transitions_;
            subset_ = walkSubset();
            // At depth <= 2 the controller's `transition` event
            // already names the new subset, and the subset names the
            // node that flipped; only deeper trees need the record.
            if (config_.depth >= 3) {
                XMIG_JOURNAL(journal_, obs::JournalKind::NodeFlip,
                             obs::JournalCause::Threshold,
                             static_cast<int64_t>(idx),
                             static_cast<int64_t>(level),
                             node.filter.value());
            }
        }
    }

    out.subset = subset_;
    XMIG_AUDIT(out.subset < numSubsets(),
               "k-way subset %u out of %u", out.subset, numSubsets());
    XMIG_EXPECT(out.subset == walkSubset(),
                "cached k-way subset %u, filters say %u", out.subset,
                walkSubset());
    return out;
}

void
KWaySplitter::attachJournal(obs::Journal *journal)
{
    journal_ = journal;
    for (Node &node : nodes_)
        node.engine->attachJournal(journal);
}

void
KWaySplitter::resetFilters()
{
    for (Node &node : nodes_)
        node.filter.reset();
    subset_ = walkSubset();
}

void
KWaySplitter::checkpoint(std::vector<EngineCheckpoint> &engines,
                         std::vector<FilterCheckpoint> &filters) const
{
    for (const Node &node : nodes_) {
        engines.push_back(node.engine->checkpoint());
        filters.push_back(checkpointFilter(node.filter));
    }
}

void
KWaySplitter::restore(const std::vector<EngineCheckpoint> &engines,
                      const std::vector<FilterCheckpoint> &filters)
{
    XMIG_ASSERT(engines.size() == nodes_.size() &&
                    filters.size() == nodes_.size(),
                "k-way checkpoint holds %zu engines / %zu filters for "
                "%zu nodes",
                engines.size(), filters.size(), nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
        nodes_[i].engine->restore(engines[i]);
        restoreFilter(nodes_[i].filter, filters[i]);
    }
    subset_ = walkSubset();
}

} // namespace xmig
