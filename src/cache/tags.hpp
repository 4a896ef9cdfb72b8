/**
 * @file
 * Tag stores: the indexing + replacement half of a cache model.
 *
 * Two concrete organizations are provided behind one interface:
 * conventional set-associative indexing, and the skewed-associative
 * organization of Bodin & Seznec that the paper uses for the 512-KB
 * L2 caches and the affinity cache (sections 3.5 and 4.2).
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/hashing.hpp"
#include "util/rng.hpp"

namespace xmig {

/** Replacement policy for a tag store. */
enum class ReplPolicy : uint8_t
{
    Lru,    ///< least-recently used (global timestamps)
    Fifo,   ///< oldest inserted
    Random, ///< uniform random victim
    Age,    ///< 2-bit age counters, as suggested for the affinity cache
};

/** One cache frame: a tag plus the state bits the models need. */
struct CacheEntry
{
    uint64_t line = 0;      ///< line address (full tag; no aliasing)
    bool valid = false;
    bool modified = false;  ///< dirty / the paper's "modified" bit
    bool prefetched = false; ///< filled by a prefetch, not yet used
    uint64_t lastUse = 0;   ///< LRU timestamp
    uint64_t inserted = 0;  ///< FIFO timestamp
    uint8_t age = 0;        ///< 2-bit age for ReplPolicy::Age

    /**
     * Owner-defined data word riding in the frame (xmig-swift). The
     * affinity cache keeps O_e here so a hit is ONE probe — tag match
     * and payload in the same entry, exactly as the hardware array of
     * section 3.5 stores tag + affinity side by side — instead of a
     * tag probe plus a separate line->O_e hash-map find. Reset to 0
     * by allocate(); plain caches ignore it.
     */
    int64_t payload = 0;
};

/**
 * Abstract tag store.
 *
 * A tag store owns the frames and decides placement and replacement,
 * but knows nothing about write policies or hierarchies; the Cache
 * class layers those semantics on top.
 */
class TagStore
{
  public:
    virtual ~TagStore() = default;

    /** Find the frame holding `line`, or nullptr. Does not touch LRU. */
    virtual CacheEntry *find(uint64_t line) = 0;
    virtual const CacheEntry *find(uint64_t line) const = 0;

    /**
     * Record a use of an already-resident entry (updates replacement
     * state: LRU timestamp, age reset).
     */
    virtual void touch(CacheEntry &entry) = 0;

    /**
     * Allocate a frame for `line`, evicting if necessary.
     *
     * If a valid entry is displaced, it is copied to `evicted` and
     * *evicted_valid is set. The returned frame has `line` installed,
     * valid set, modified cleared, and fresh replacement state.
     */
    virtual CacheEntry &allocate(uint64_t line, CacheEntry *evicted,
                                 bool *evicted_valid) = 0;

    /** Drop `line` if resident. Returns true if it was. */
    virtual bool invalidate(uint64_t line) = 0;

    /** Total number of frames. */
    virtual uint64_t frames() const = 0;

    /** Number of valid entries (O(frames); for tests and reports). */
    virtual uint64_t occupancy() const = 0;

    /** Visit every valid entry (for tests and coherence audits). */
    virtual void
    forEachValid(const std::function<void(const CacheEntry &)> &fn) const = 0;
};

/**
 * Conventional set-associative tag store.
 *
 * Index bits are taken from the low-order line-address bits. A single
 * set with `ways == frames` degenerates to a fully-associative store
 * (used only for small structures; see FullyAssocLru for the fast
 * large-capacity variant).
 */
class SetAssocTags : public TagStore
{
  public:
    /**
     * @param num_sets power-of-two set count
     * @param ways associativity
     * @param policy replacement policy
     * @param seed RNG seed for ReplPolicy::Random
     */
    SetAssocTags(uint64_t num_sets, unsigned ways, ReplPolicy policy,
                 uint64_t seed = 1);

    CacheEntry *find(uint64_t line) override;
    const CacheEntry *find(uint64_t line) const override;
    void touch(CacheEntry &entry) override;
    CacheEntry &allocate(uint64_t line, CacheEntry *evicted,
                         bool *evicted_valid) override;
    bool invalidate(uint64_t line) override;
    uint64_t frames() const override { return entries_.size(); }
    uint64_t occupancy() const override;
    void forEachValid(
        const std::function<void(const CacheEntry &)> &fn) const override;

    uint64_t numSets() const { return numSets_; }
    unsigned ways() const { return ways_; }

    /**
     * Non-virtual, header-inline probe/touch for batch loops that hold
     * a concrete SetAssocTags* (xmig-bolt). Same semantics as the
     * virtual find()/touch() — those forward here, so there is exactly
     * one code path.
     */
    CacheEntry *
    findFast(uint64_t line)
    {
        CacheEntry *base = &entries_[setOf(line) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].line == line)
                return &base[w];
        }
        return nullptr;
    }

    void
    touchFast(CacheEntry &entry)
    {
        entry.lastUse = ++clock_;
        entry.age = 0;
        // L1/L2 run Lru, so the batch hot loop never takes this branch;
        // the Age sweep stays out of line.
        if (policy_ == ReplPolicy::Age)
            agePass();
    }

  private:
    uint64_t setOf(uint64_t line) const { return line & (numSets_ - 1); }
    void agePass();

    uint64_t numSets_;
    unsigned ways_;
    ReplPolicy policy_;
    uint64_t clock_ = 0;
    Rng rng_;
    std::vector<CacheEntry> entries_; // numSets_ * ways_, set-major
};

/**
 * Skewed-associative tag store (Bodin & Seznec).
 *
 * Each way is a distinct bank indexed by its own hash of the line
 * address, which spreads set conflicts across banks. Replacement
 * chooses among the `ways` candidate frames (one per bank) using the
 * configured policy.
 */
class SkewedTags : public TagStore
{
  public:
    SkewedTags(uint64_t sets_per_bank, unsigned ways, ReplPolicy policy,
               uint64_t seed = 1);

    CacheEntry *find(uint64_t line) override;
    const CacheEntry *find(uint64_t line) const override;
    void touch(CacheEntry &entry) override;
    CacheEntry &allocate(uint64_t line, CacheEntry *evicted,
                         bool *evicted_valid) override;
    bool invalidate(uint64_t line) override;
    uint64_t frames() const override { return entries_.size(); }
    uint64_t occupancy() const override;
    void forEachValid(
        const std::function<void(const CacheEntry &)> &fn) const override;

    uint64_t setsPerBank() const { return setsPerBank_; }
    unsigned ways() const { return ways_; }

    /** Non-virtual, header-inline probe/touch (see SetAssocTags). */
    CacheEntry *
    findFast(uint64_t line)
    {
        for (unsigned b = 0; b < ways_; ++b) {
            CacheEntry &e = entries_[slotOf(line, b)];
            if (e.valid && e.line == line)
                return &e;
        }
        return nullptr;
    }

    void
    touchFast(CacheEntry &entry)
    {
        entry.lastUse = ++clock_;
        entry.age = 0;
        if (policy_ == ReplPolicy::Age)
            agePass();
    }

  private:
    /** Frame index of `line`'s candidate slot in `bank`. */
    uint64_t
    slotOf(uint64_t line, unsigned bank) const
    {
        // Bank 0 uses straight modulo indexing; other banks use
        // skewing hashes, so bank 0 behaves like a direct-mapped slice
        // and the skew spreads conflicts across the others.
        const uint64_t set = bank == 0
            ? (line & (setsPerBank_ - 1))
            : skewHash(line, bank, setsPerBank_);
        return uint64_t(bank) * setsPerBank_ + set;
    }

    void agePass();

    uint64_t setsPerBank_;
    unsigned ways_;
    ReplPolicy policy_;
    uint64_t clock_ = 0;
    Rng rng_;
    std::vector<CacheEntry> entries_; // bank-major: bank*setsPerBank + set
};

} // namespace xmig
