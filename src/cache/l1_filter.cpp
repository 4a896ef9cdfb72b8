#include "cache/l1_filter.hpp"

#include "util/logging.hpp"

namespace xmig {

L1Filter::L1Filter(const L1FilterConfig &config, LineSink &sink)
    : config_(config),
      geom_(config.lineBytes),
      sink_(&sink)
{
    if (config_.fullyAssociative) {
        fa_[kIl1] = std::make_unique<FullyAssocLru>(
            config_.il1Bytes / config_.lineBytes);
        fa_[kDl1] = std::make_unique<FullyAssocLru>(
            config_.dl1Bytes / config_.lineBytes);
    } else {
        CacheConfig il1;
        il1.capacityBytes = config_.il1Bytes;
        il1.ways = config_.ways;
        il1.lineBytes = config_.lineBytes;
        il1.write = WritePolicy::WriteBackAllocate; // ifetch never writes
        sa_[kIl1] = std::make_unique<Cache>(il1);

        CacheConfig dl1 = il1;
        dl1.capacityBytes = config_.dl1Bytes;
        dl1.write = config_.unifiedReadWrite
            ? WritePolicy::WriteBackAllocate
            : WritePolicy::WriteThroughNoAllocate;
        sa_[kDl1] = std::make_unique<Cache>(dl1);
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
 * The one per-reference body: probe `line` in level `l1` (kIl1 or
 * kDl1), tally a hit in `hits`, and return whether it hit.
 *
 * A repeat of the level's last touched or filled line is a guaranteed
 * hit and skips the probe. Skipping its touch is exact: the
 * remembered frame already holds the newest stamp of its array, and
 * both arrays are private to this filter with their own clocks, so a
 * skipped touch only shifts the clock and every later LRU victim
 * compares the same way; Fifo and Random victims depend only on
 * install stamps and allocate-time draws. No L1 ever sets a modified
 * bit (only the write-through DL1 sees stores), so a hit has nothing
 * else to change. In the fully-associative arm the line already sits
 * at the front of the recency list, where a hit would splice it.
 */
template <bool kFullyAssoc>
inline bool
L1Filter::probe(uint64_t line, unsigned l1, bool is_store, uint64_t &hits)
{
    if (line == lastLine_[l1]) {
        ++hits;
        return true;
    }
    if constexpr (kFullyAssoc) {
        lastLine_[l1] = line;
        return fa_[l1]->accessTallied(line, hits);
    } else {
        const AccessOutcome out = sa_[l1]->accessTallied(line, is_store, hits);
        // A write-through store miss leaves the line non-resident.
        if (out.frame != Cache::kNoFrame)
            lastLine_[l1] = line;
        return out.hit;
    }
}

template <bool kFullyAssoc>
size_t
L1Filter::filterRun(const MemRef *refs, size_t n, LineEvent *events,
                    uint32_t *ref_idx, uint32_t *ev_instr,
                    uint32_t *ifetch_total)
{
    uint64_t hits[2] = {0, 0};
    const unsigned shift = geom_.lineShift();
    const bool write_through = !config_.unifiedReadWrite;
    size_t m = 0;
    uint32_t instr = 0;
    for (size_t i = 0; i < n; ++i) {
        const MemRef &ref = refs[i];
        const uint64_t line = ref.addr >> shift;
        const bool ifetch = ref.isIfetch();
        const bool is_store = write_through && ref.isStore();
        instr += ifetch ? 1 : 0;
        const unsigned l1 = ifetch ? kIl1 : kDl1;
        const bool hit = probe<kFullyAssoc>(line, l1, is_store, hits[l1]);
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
        if constexpr (kFullyAssoc)
            fa_[l1]->settleBatchStats(accesses, hits[l1]);
        else
            sa_[l1]->settleBatchStats(accesses, hits[l1]);
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
            sa_[l1]->resetStats();
    }
}

const CacheStats &
L1Filter::il1Stats() const
{
    return config_.fullyAssociative ? fa_[kIl1]->stats()
                                    : sa_[kIl1]->stats();
}

const CacheStats &
L1Filter::dl1Stats() const
{
    return config_.fullyAssociative ? fa_[kDl1]->stats()
                                    : sa_[kDl1]->stats();
}

} // namespace xmig
