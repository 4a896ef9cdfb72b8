/**
 * @file
 * A single cache with write-policy semantics, built on a FrameArray.
 *
 * The paper's L2s are write-back, write-allocate and 4-way
 * skewed-associative. The write-through, non-write-allocate policy of
 * its L1 data cache (section 2.1) is modelled here too, as the
 * stamped-LRU oracle the L1 filter's tests check it against; the
 * machine's L1s are cache/l1_filter.hpp's recency-ordered sets.
 * Cache operates on *line addresses*; callers apply LineGeometry.
 */

#pragma once

#include <cstdint>

#include "cache/frames.hpp"

namespace xmig {

/** Write-handling policy. */
enum class WritePolicy : uint8_t
{
    WriteThroughNoAllocate, ///< stores propagate down; miss: no fill
    WriteBackAllocate,      ///< stores set modified; miss: fill first
};

/** Static configuration of one cache. */
struct CacheConfig
{
    uint64_t capacityBytes = 512 * 1024;
    unsigned ways = 4;
    uint64_t lineBytes = 64;
    WritePolicy write = WritePolicy::WriteBackAllocate;
    bool skewed = false; ///< skewed-associative instead of set-assoc
    /**
     * No effect: replacement is always LRU, so nothing is random. The
     * field stays because xmig-bench/main.cpp, the fixed benchmark
     * harness, still assigns it.
     */
    uint64_t seed = 1;

    uint64_t numLines() const { return capacityBytes / lineBytes; }
};

/** What one access did, for stats and for driving the level below. */
struct AccessOutcome
{
    bool hit = false;
    bool filled = false;        ///< a frame was allocated for the line
    bool writeThrough = false;  ///< store must be sent downstream (WT)
    bool evictedValid = false;  ///< an existing line was displaced
    bool writeback = false;     ///< ...and it was modified (dirty)
    uint64_t evictedLine = 0;

    /**
     * Frame holding `line` after the operation: the hit frame, or the
     * frame just filled; kNoFrame when the line was left non-resident
     * (WT-no-allocate store miss). Valid only until the next mutation
     * of the cache. Saves callers a re-probe.
     */
    uint32_t frame = FrameArray::kNoFrame;
};

/** Hit/miss statistics for one cache. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;

    double
    missRatio() const
    {
        return accesses == 0
            ? 0.0
            : static_cast<double>(misses) / static_cast<double>(accesses);
    }
};

/**
 * One cache level.
 *
 * Besides the usual access() path, exposes fill() / find() /
 * invalidate() and the per-frame modified and prefetched bits so the
 * multi-core model can implement the paper's migration-mode coherence
 * (mirrored fills, modified-bit transfer, update-bus stores into
 * inactive copies).
 */
class Cache
{
  public:
    using Slots = FrameArray::Slots;
    static constexpr uint32_t kNoFrame = FrameArray::kNoFrame;

    explicit Cache(const CacheConfig &config);

    /**
     * Perform a load or store for `line`, applying the write policy.
     * Misses allocate according to the policy.
     */
    AccessOutcome
    access(uint64_t line, bool is_store)
    {
        const Slots s = frames_.slots(line);
        return accessProbed(line, s, frames_.find(line, s), is_store);
    }

    /**
     * access() with the index and the probe hoisted out: `s` MUST be
     * slots(line) and `probe` find(line, s), with no intervening
     * mutation of this cache. Lets the migration decision, the L2
     * access and the probes of the other cores' L2s share one hash of
     * the line.
     */
    AccessOutcome
    accessProbed(uint64_t line, const Slots &s, uint32_t probe,
                 bool is_store)
    {
        ++stats_.accesses;
        AccessOutcome out;
        if (probe == kNoFrame) {
            missPath(line, s, is_store, out);
            return out;
        }
        out.hit = true;
        ++stats_.hits;
        frames_.touch(probe);
        if (is_store) {
            if (config_.write == WritePolicy::WriteBackAllocate)
                frames_.setModified(probe, true);
            else
                out.writeThrough = true;
        }
        out.frame = probe;
        return out;
    }

    /**
     * Install `line` without counting an access (broadcast fills,
     * forwarded lines). No-op if already resident, except that
     * `modified` is ORed into the frame.
     */
    AccessOutcome fill(uint64_t line, bool modified);

    /** Candidate frames of `line` (shared by every probe of it). */
    Slots slots(uint64_t line) const { return frames_.slots(line); }

    /** Frame holding `line`, or kNoFrame. */
    uint32_t
    find(uint64_t line, const Slots &s) const
    {
        return frames_.find(line, s);
    }
    uint32_t find(uint64_t line) const { return frames_.find(line); }

    /** True if `line` is resident. */
    bool contains(uint64_t line) const { return find(line) != kNoFrame; }

    bool modified(uint32_t f) const { return frames_.modified(f); }
    void setModified(uint32_t f, bool on) { frames_.setModified(f, on); }
    bool prefetched(uint32_t f) const { return frames_.prefetched(f); }
    void setPrefetched(uint32_t f, bool on) { frames_.setPrefetched(f, on); }

    /** Remove `line` if resident. */
    bool invalidate(uint64_t line) { return frames_.invalidate(line); }

    /**
     * Drop every resident line (hot-unplug: the contents are lost,
     * nothing is written back). Returns the number of *modified*
     * lines discarded — data that existed nowhere else.
     */
    uint64_t invalidateAll();

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = {}; }

    const CacheConfig &config() const { return config_; }
    const FrameArray &frames() const { return frames_; }

  private:
    /** The miss arm of every access (counts the miss). */
    void missPath(uint64_t line, const Slots &s, bool is_store,
                  AccessOutcome &out);

    /** Allocate `line`, reporting the displaced frame in `out`. */
    uint32_t install(uint64_t line, const Slots &s, AccessOutcome &out);

    CacheConfig config_;
    FrameArray frames_;
    CacheStats stats_;
};

} // namespace xmig
