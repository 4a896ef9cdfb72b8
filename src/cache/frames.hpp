/**
 * @file
 * FrameArray: the indexing and replacement half of every cache model.
 *
 * One non-virtual structure of arrays serves the L1s, the per-core
 * L2s and the L3 (cache.hpp), and the affinity cache of section 3.5
 * (core/soa_oe_store.hpp). Each frame is three columns:
 *  - `tag`: the full line address, or kInvalidTag for a free frame;
 *  - `stamp`: the replacement clock at the last touch (Lru) or the
 *    install (Fifo);
 *  - one flags byte: the paper's modified bit and the prefetched mark.
 * A probe reads 8 bytes per candidate way.
 *
 * Two index functions are chosen at construction: conventional
 * set-associative indexing (frames set-major) and the skewed
 * associativity of Bodin & Seznec that the paper uses for the 512-KB
 * L2s and the affinity cache (frames bank-major; bank 0 indexes
 * straight, every other bank through skewHash). slots() computes a
 * line's candidate frames once, and every probe, touch and allocate
 * of that line reuses them.
 *
 * find() and the Lru/Fifo victim choice of allocate() select instead
 * of branching on data; a free frame always carries stamp 0.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "util/contracts.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace xmig {

/** Replacement policy of a frame array. */
enum class ReplPolicy : uint8_t
{
    Lru,    ///< least-recently used (global timestamps)
    Fifo,   ///< oldest inserted
    Random, ///< uniform random victim
    /**
     * The paper's 2-bit age-based replacement (section 3.5). An age
     * is a monotone function of the time since the last touch and
     * ties go to the LRU stamp, so it always evicts the LRU victim;
     * the AgeEqualsLru golden tests (tests/test_tags.cpp,
     * tests/test_oe_store.cpp) prove it on every golden stream.
     */
    Age = Lru,
};

/** Sets x ways of tagged frames with one replacement policy. */
class FrameArray
{
  public:
    static constexpr uint32_t kNoFrame = ~uint32_t{0};
    static constexpr uint64_t kInvalidTag = ~uint64_t{0};
    static constexpr unsigned kMaxSkewedWays = 16;

    /**
     * A line's candidate frames. Skewed arrays list one frame per
     * bank; set-associative arrays store only the set's first frame
     * in frame[0], and way w is frame[0] + w. Entries slots() does not
     * write are never read, and stay uninitialized on purpose: zeroing
     * 64 bytes would cost every L1 reference four stores.
     */
    struct Slots
    {
        uint32_t frame[kMaxSkewedWays];
    };

    /** The frame allocate() displaced. */
    struct Eviction
    {
        bool valid = false;
        bool modified = false;
        uint64_t line = 0;
    };

    /**
     * @param sets power-of-two set count (sets per bank when skewed)
     * @param ways associativity (banks when skewed)
     * @param skewed skewed-associative instead of set-associative
     * @param policy replacement policy
     * @param seed RNG seed for ReplPolicy::Random
     */
    FrameArray(uint64_t sets, unsigned ways, bool skewed, ReplPolicy policy,
               uint64_t seed = 1);

    Slots
    slots(uint64_t line) const
    {
        XMIG_AUDIT(line != kInvalidTag, "line %llx is the invalid tag",
                   (unsigned long long)line);
        Slots s;
        if (!skewed_) {
            s.frame[0] = static_cast<uint32_t>((line & (sets_ - 1)) * ways_);
            return s;
        }
        for (unsigned b = 0; b < ways_; ++b) {
            s.frame[b] = static_cast<uint32_t>(
                b * sets_ + skewHash(line, b, sets_));
        }
        return s;
    }

    /** Frame index of candidate way `w`. */
    uint32_t
    candidate(const Slots &s, unsigned w) const
    {
        return skewed_ ? s.frame[w] : s.frame[0] + w;
    }

    /**
     * Frame holding `line`, or kNoFrame. Does not touch the stamp.
     * The hit way is unpredictable, so every candidate is compared and
     * the match selected, with no early exit; a line is resident at
     * most once (allocate runs only after a miss).
     */
    uint32_t
    find(uint64_t line, const Slots &s) const
    {
        uint32_t hit = kNoFrame;
        for (unsigned w = 0; w < ways_; ++w) {
            const uint32_t f = candidate(s, w);
            hit = tag_[f] == line ? f : hit;
        }
        XMIG_EXPECT(count(s, [&](uint32_t f) { return tag_[f] == line; }) <= 1,
                    "line %llx is resident twice", (unsigned long long)line);
        return hit;
    }

    uint32_t find(uint64_t line) const { return find(line, slots(line)); }

    /** Record a use of resident frame `f`; the clock always advances. */
    void
    touch(uint32_t f)
    {
        ++clock_;
        if (policy_ != ReplPolicy::Fifo)
            stamp_[f] = clock_;
    }

    /**
     * Install `line` (not resident) in one of its candidate frames:
     * the first free one in way order, else the policy's victim. The
     * frame comes back clean with a fresh stamp; what it held is
     * reported in `evicted`. Lru and Fifo select the least stamp,
     * first in way order, in one pass: a free frame has stamp 0 and a
     * valid one at least 1.
     */
    uint32_t
    allocate(uint64_t line, const Slots &s, Eviction &evicted)
    {
        XMIG_ASSERT(line != kInvalidTag, "cannot install the invalid tag");
        uint32_t victim = candidate(s, 0);
        if (policy_ == ReplPolicy::Random) {
            unsigned w = 0;
            while (w < ways_ && tag_[candidate(s, w)] != kInvalidTag)
                ++w;
            if (w == ways_)
                w = static_cast<unsigned>(rng_.below(ways_));
            victim = candidate(s, w);
        } else {
            XMIG_EXPECT(count(s, [&](uint32_t f) {
                            return tag_[f] == kInvalidTag && stamp_[f] != 0;
                        }) == 0,
                        "a free candidate of line %llx is stamped",
                        (unsigned long long)line);
            uint64_t least = stamp_[victim];
            for (unsigned w = 1; w < ways_; ++w) {
                const uint32_t f = candidate(s, w);
                const bool older = stamp_[f] < least;
                victim = older ? f : victim;
                least = older ? stamp_[f] : least;
            }
        }
        evicted.valid = tag_[victim] != kInvalidTag;
        evicted.modified = evicted.valid && modified(victim);
        evicted.line = tag_[victim];
        tag_[victim] = line;
        stamp_[victim] = ++clock_;
        flags_[victim] = 0;
        return victim;
    }

    /** Free frame `f` (its contents are dropped; its stamp is 0). */
    void
    invalidateFrame(uint32_t f)
    {
        tag_[f] = kInvalidTag;
        stamp_[f] = 0;
        flags_[f] = 0;
    }

    /** Drop `line` if resident. Returns true if it was. */
    bool
    invalidate(uint64_t line)
    {
        const uint32_t f = find(line);
        if (f == kNoFrame)
            return false;
        invalidateFrame(f);
        return true;
    }

    bool valid(uint32_t f) const { return tag_[f] != kInvalidTag; }
    uint64_t line(uint32_t f) const { return tag_[f]; }

    bool modified(uint32_t f) const { return (flags_[f] & kModified) != 0; }
    bool prefetched(uint32_t f) const { return (flags_[f] & kPrefetched) != 0; }
    void setModified(uint32_t f, bool on) { setFlag(f, kModified, on); }
    void setPrefetched(uint32_t f, bool on) { setFlag(f, kPrefetched, on); }

    /** Visit every valid frame index, in frame order. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (uint32_t f = 0; f < tag_.size(); ++f) {
            if (tag_[f] != kInvalidTag)
                fn(f);
        }
    }

    /** Number of valid frames (O(frames); for tests and reports). */
    uint64_t occupancy() const;

    uint64_t frames() const { return tag_.size(); }

    /** True if both arrays map every line to the same frames. */
    bool
    sameIndexing(const FrameArray &other) const
    {
        return sets_ == other.sets_ && ways_ == other.ways_ &&
               skewed_ == other.skewed_;
    }

  private:
    static constexpr uint8_t kModified = 1;
    static constexpr uint8_t kPrefetched = 2;

    void
    setFlag(uint32_t f, uint8_t bit, bool on)
    {
        flags_[f] = static_cast<uint8_t>(on ? flags_[f] | bit
                                            : flags_[f] & ~bit);
    }

    /** Candidate frames of `s` for which `pred` holds (for audits). */
    template <typename Pred>
    unsigned
    count(const Slots &s, Pred pred) const
    {
        unsigned n = 0;
        for (unsigned w = 0; w < ways_; ++w)
            n += pred(candidate(s, w)) ? 1 : 0;
        return n;
    }

    uint64_t sets_;
    unsigned ways_;
    bool skewed_;
    ReplPolicy policy_;
    uint64_t clock_ = 0;
    Rng rng_;
    std::vector<uint64_t> tag_;   ///< line address, kInvalidTag if free
    std::vector<uint64_t> stamp_; ///< Lru: last touch; Fifo: install
    std::vector<uint8_t> flags_;  ///< kModified | kPrefetched
};

} // namespace xmig
