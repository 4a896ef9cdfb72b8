/**
 * @file
 * Level-1 filtering of a reference stream.
 *
 * Both evaluation setups in the paper observe the stream *after* the
 * L1 caches: section 4.1 filters through 16-KB fully-associative LRU
 * IL1/DL1 (loads and stores not distinguished), and section 4.2 uses
 * 16-KB 4-way set-associative L1s with a write-through,
 * non-write-allocate DL1, so the L2 sees L1 misses plus every store.
 *
 * Because the paper mirrors L1 contents across all cores (section
 * 2.3), the L1-filtered stream is identical whether or not execution
 * migrates; one shared filter instance therefore models the L1 level
 * of the whole machine exactly.
 *
 * Every reference, whether it arrives through access() or
 * filterBatch(), runs through one inline body (l1_filter.cpp). A
 * set-associative L1 stores each set's line addresses most recent
 * first, so the recency order is the LRU order itself: a probe
 * compares the MRU way first, a hit moves its line to the front and a
 * fill drops the tail (docs/parallelism.md, "recency-ordered sets").
 * The fully-associative L1 remembers its last line, whose re-reference
 * is a guaranteed hit that costs one compare.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hpp"
#include "cache/fully_assoc.hpp"
#include "mem/line.hpp"
#include "mem/ref.hpp"
#include "mem/trace.hpp"

namespace xmig {

/** One post-L1 event: a line-granularity request leaving the L1s. */
struct LineEvent
{
    uint64_t line = 0;   ///< line address
    RefType type = RefType::Load;
    bool l1Miss = false; ///< true for misses; false for WT store hits
    bool pointer = false; ///< request came from a pointer load
};

/** Consumer of the post-L1 stream. */
class LineSink
{
  public:
    virtual ~LineSink() = default;
    virtual void onLine(const LineEvent &event) = 0;
};

/** LineSink that drops everything. */
class NullLineSink : public LineSink
{
  public:
    void onLine(const LineEvent &) override {}
};

/** Configuration for the L1 level. */
struct L1FilterConfig
{
    uint64_t il1Bytes = 16 * 1024;
    uint64_t dl1Bytes = 16 * 1024;
    uint64_t lineBytes = 64;

    /** true: fully-associative LRU (section 4.1); false: set-assoc. */
    bool fullyAssociative = true;

    /** Associativity when !fullyAssociative (section 4.2 uses 4). */
    unsigned ways = 4;

    /**
     * true: loads and stores are not distinguished (section 4.1);
     * stores allocate like loads and nothing is written through.
     * false: DL1 is write-through non-write-allocate (section 2.1);
     * every store is forwarded downstream, store misses do not
     * allocate.
     */
    bool unifiedReadWrite = true;
};

/**
 * The L1 level of the machine: filters MemRefs, emits LineEvents.
 */
class L1Filter : public RefSink
{
  public:
    /** @param sink downstream consumer of post-L1 line events. */
    L1Filter(const L1FilterConfig &config, LineSink &sink);

    /** Filter one reference; a post-L1 event goes to the sink. */
    void access(const MemRef &ref) override;

    /**
     * Filter a run of `n` references without invoking the sink: the
     * resulting post-L1 events land in `events[0..m)` with the index
     * of the originating reference in `ref_idx[0..m)` and the number
     * of instruction fetches among refs[0..ref_idx[m]] (inclusive) in
     * `ev_instr[0..m)`; returns m (<= n, at most one event per
     * reference). `*ifetch_total` receives the run's instruction-
     * fetch count. Hit tallies stay local across the run, access
     * tallies follow from the ifetch count, and both are settled into
     * the stats once at its end.
     *
     * access() is this call with n = 1. Batching is exact: L1 state
     * depends only on the reference stream itself — downstream
     * processing never writes back into the L1 level — so probing the
     * whole run before the caller consumes any event cannot change
     * what any probe sees (docs/parallelism.md, "batching").
     */
    size_t filterBatch(const MemRef *refs, size_t n, LineEvent *events,
                       uint32_t *ref_idx, uint32_t *ev_instr,
                       uint32_t *ifetch_total);

    const CacheStats &il1Stats() const { return stats_[kIl1]; }
    const CacheStats &dl1Stats() const { return stats_[kDl1]; }
    const LineGeometry &geometry() const { return geom_; }

    /** Zero the IL1/DL1 counters (contents are preserved). */
    void resetStats();

    /** Replace the downstream sink (for staged experiments). */
    void setSink(LineSink &sink) { sink_ = &sink; }

    /** The downstream consumer of this level's post-L1 events. */
    LineSink &sink() const { return *sink_; }

  private:
    /** Index of the IL1 and the DL1 in the per-level arrays. */
    static constexpr unsigned kIl1 = 0, kDl1 = 1;

    /** No line: lineOf() never yields it (lines are >= 4 bytes). */
    static constexpr uint64_t kNoLine = ~uint64_t{0};

    template <bool kFullyAssoc>
    size_t filterRun(const MemRef *refs, size_t n, LineEvent *events,
                     uint32_t *ref_idx, uint32_t *ev_instr,
                     uint32_t *ifetch_total);

    static bool probeSet(uint64_t *t, unsigned ways, uint64_t line,
                         bool is_store);

    L1FilterConfig config_;
    LineGeometry geom_;
    LineSink *sink_;

    // Fully-associative backing (section 4.1) with its last line...
    std::unique_ptr<FullyAssocLru> fa_[2];
    uint64_t faLast_[2] = {kNoLine, kNoLine};

    // ...or set-associative backing (section 4.2): `ways` lines per
    // set, most recent first; kNoLine marks a free way, always at the
    // tail of its set.
    std::vector<uint64_t> tags_[2];
    uint64_t setMask_[2] = {0, 0}; ///< sets - 1

    CacheStats stats_[2];
};

} // namespace xmig
