#include "cache/l1_filter.hpp"

#include <algorithm>
#include <bit>

#include "util/contracts.hpp"

namespace xmig {

L1Filter::L1Filter(const L1FilterConfig &config, LineSink &sink)
    : config_(config),
      geom_(config.lineBytes),
      sink_(&sink)
{
    for (unsigned l1 : {kIl1, kDl1}) {
        const uint64_t lines =
            (l1 == kIl1 ? config_.il1Bytes : config_.dl1Bytes) /
            config_.lineBytes;
        if (config_.fullyAssociative) {
            fa_[l1] = std::make_unique<FullyAssocLru>(lines);
            continue;
        }
        XMIG_ASSERT(config_.ways >= 1, "an L1 needs at least one way");
        const uint64_t sets = lines / config_.ways;
        XMIG_ASSERT(sets * config_.ways == lines && std::has_single_bit(sets),
                    "%llu L1 lines are not a power of two of %u-way sets",
                    (unsigned long long)lines, config_.ways);
        tags_[l1].assign(lines, kNoLine);
        setMask_[l1] = sets - 1;
    }
}

void
L1Filter::access(const MemRef &ref)
{
    LineEvent event;
    uint32_t ref_idx, ev_instr, ifetches;
    if (filterBatch(&ref, 1, &event, &ref_idx, &ev_instr, &ifetches) != 0)
        sink_->onLine(event);
}

size_t
L1Filter::filterBatch(const MemRef *refs, size_t n, LineEvent *events,
                      uint32_t *ref_idx, uint32_t *ev_instr,
                      uint32_t *ifetch_total)
{
    return config_.fullyAssociative
        ? filterRun<true>(refs, n, events, ref_idx, ev_instr, ifetch_total)
        : filterRun<false>(refs, n, events, ref_idx, ev_instr,
                           ifetch_total);
}

/**
 * The set-associative per-reference body: probe `line` in set `t` of
 * `ways` lines and return whether it hit.
 *
 * The set holds its lines most recent first, with free ways (kNoLine)
 * at the tail, so t[0] is the MRU line and one compare settles the
 * commonest hit. A hit at way k moves t[0..k) down one place and puts
 * the line in t[0]; a miss that allocates drops the tail, a free way
 * if there is one, else the LRU line, the same way. This keeps the
 * resident set of a stamped LRU array at every reference: that array
 * fills a free way before it evicts, and its least stamp is the
 * recency tail. A write-through store miss leaves the set as it was.
 * No L1 ever sets a modified bit (only the write-through DL1 sees
 * stores), so a hit has nothing else to change.
 */
inline bool
L1Filter::probeSet(uint64_t *t, unsigned ways, uint64_t line, bool is_store)
{
    if (t[0] == line)
        return true;
    unsigned at = ways;
    for (unsigned w = 1; w < ways; ++w)
        at = t[w] == line ? w : at;
    XMIG_EXPECT(std::count(t, t + ways, line) <= 1,
                "line %llx is in its L1 set twice", (unsigned long long)line);
    const bool hit = at != ways;
    if (!hit && is_store)
        return false;
    for (unsigned w = hit ? at : ways - 1; w > 0; --w)
        t[w] = t[w - 1];
    t[0] = line;
    return hit;
}

/**
 * The fully-associative per-reference body. A reference to the level's
 * last line is a guaranteed hit that already sits at the front of the
 * recency list, where a hit would splice it.
 */
inline bool
L1Filter::probeFullyAssoc(uint64_t line, unsigned l1)
{
    if (line == faLast_[l1])
        return true;
    faLast_[l1] = line;
    return fa_[l1]->accessUncounted(line);
}

template <bool kFullyAssoc>
size_t
L1Filter::filterRun(const MemRef *refs, size_t n, LineEvent *events,
                    uint32_t *ref_idx, uint32_t *ev_instr,
                    uint32_t *ifetch_total)
{
    uint64_t hits = 0, ifetch_hits = 0;
    const unsigned shift = geom_.lineShift();
    const bool write_through = !config_.unifiedReadWrite;
    // Loaded once: the stores into `events` may alias any member.
    const unsigned ways = config_.ways;
    uint64_t *const tags[2] = {tags_[kIl1].data(), tags_[kDl1].data()};
    const uint64_t set_mask[2] = {setMask_[kIl1], setMask_[kDl1]};
    size_t m = 0;
    uint32_t instr = 0;
    for (size_t i = 0; i < n; ++i) {
        const MemRef &ref = refs[i];
        const uint64_t line = ref.addr >> shift;
        const bool ifetch = ref.isIfetch();
        const bool is_store = write_through && ref.isStore();
        instr += ifetch ? 1 : 0;
        const unsigned l1 = ifetch ? kIl1 : kDl1;
        const bool hit = kFullyAssoc
            ? probeFullyAssoc(line, l1)
            : probeSet(tags[l1] + (line & set_mask[l1]) * ways, ways, line,
                       is_store);
        hits += hit ? 1 : 0;
        ifetch_hits += hit && ifetch ? 1 : 0;
        // Downstream sees every miss, plus (in write-through mode)
        // every store, hit or miss, since WT stores always propagate.
        if (!hit || is_store) {
            events[m].line = line;
            events[m].type = ref.type;
            events[m].l1Miss = !hit;
            events[m].pointer = ref.pointer;
            ref_idx[m] = static_cast<uint32_t>(i);
            ev_instr[m] = instr;
            ++m;
        }
    }
    for (unsigned l1 : {kIl1, kDl1}) {
        const uint64_t accesses = l1 == kIl1 ? instr : n - instr;
        const uint64_t l1_hits =
            l1 == kIl1 ? ifetch_hits : hits - ifetch_hits;
        if constexpr (kFullyAssoc) {
            fa_[l1]->settleBatchStats(accesses, l1_hits);
        } else {
            saStats_[l1].accesses += accesses;
            saStats_[l1].hits += l1_hits;
            saStats_[l1].misses += accesses - l1_hits;
        }
    }
    *ifetch_total = instr;
    return m;
}

void
L1Filter::resetStats()
{
    for (unsigned l1 : {kIl1, kDl1}) {
        if (config_.fullyAssociative)
            fa_[l1]->resetStats();
        else
            saStats_[l1] = {};
    }
}

const CacheStats &
L1Filter::il1Stats() const
{
    return config_.fullyAssociative ? fa_[kIl1]->stats() : saStats_[kIl1];
}

const CacheStats &
L1Filter::dl1Stats() const
{
    return config_.fullyAssociative ? fa_[kDl1]->stats() : saStats_[kDl1];
}

} // namespace xmig
