/**
 * @file
 * Storage for the postponed affinity values O_e (the "affinity cache").
 *
 * Section 3.2's postponed-update scheme keeps O_e = A_e + Delta for
 * every working-set line that is outside the R-window. Section 4.1
 * assumes unlimited storage; section 4.2 uses a finite 8k-entry 4-way
 * skewed-associative affinity cache with age-based replacement where a
 * miss forces A_e = 0 by installing O_e = Delta.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/frames.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/saturating.hpp"

namespace xmig {

/** Hit/miss statistics for an O_e store. */
struct OeStoreStats
{
    uint64_t lookups = 0;
    uint64_t misses = 0;
    uint64_t stores = 0;
    uint64_t evictions = 0; ///< entries displaced (finite cache only)

    /** Lookups served from an existing entry. */
    uint64_t hits() const { return lookups - misses; }
};

/** One snapshotted (line, O_e) pair (checkpointing). */
struct OeEntrySnapshot
{
    uint64_t line = 0;
    int64_t oe = 0;
};

/**
 * Abstract O_e storage.
 *
 * lookup() is called when a line enters the R-window; store() when it
 * leaves. Values are saturated to the configured affinity width.
 */
class OeStore
{
  public:
    virtual ~OeStore() = default;

    /**
     * Fetch O_e for `line`. If no entry exists, one is created with
     * O_e = `delta`, which forces A_e = O_e - Delta = 0 — the paper's
     * initialization rule and its affinity-cache miss policy.
     */
    virtual int64_t lookup(uint64_t line, int64_t delta) = 0;

    /** Write O_e back when `line` leaves the R-window. */
    virtual void store(uint64_t line, int64_t oe) = 0;

    /** Inspect O_e without allocating (snapshots, tests). */
    virtual std::optional<int64_t> peek(uint64_t line) const = 0;

    virtual const OeStoreStats &stats() const = 0;

    /**
     * xmig-iron fault hook: flip one random bit of one uniformly
     * chosen entry's O_e value (re-saturated to the affinity width).
     * Returns false when the store is empty. O(entries); faults are
     * rare, so the scan cost is irrelevant.
     */
    virtual bool corruptRandomEntry(Rng &rng) = 0;

    /**
     * xmig-iron fault hook: lose one uniformly chosen entry outright,
     * modeling a corrupted affinity-cache tag (the entry can no
     * longer be found, so its next lookup misses and re-initializes
     * A_e = 0). Returns false when the store is empty.
     */
    virtual bool dropRandomEntry(Rng &rng) = 0;

    /** Append every entry, sorted by line (checkpointing). */
    virtual void snapshotEntries(std::vector<OeEntrySnapshot> &out)
        const = 0;

    /**
     * Replace the contents with `entries` and adopt `stats`; with no
     * entries the store then decides exactly as a new one would.
     * Exact for the unbounded store; for the finite affinity cache the
     * replacement ages are rebuilt by re-insertion, so subsequent
     * victim choices may differ from the original run (documented in
     * docs/robustness.md).
     */
    virtual void restoreEntries(const std::vector<OeEntrySnapshot> &entries,
                                const OeStoreStats &stats) = 0;
};

/**
 * How the affinity of a line first referenced is initialized.
 *
 * The paper's definition forces A_e(t_e) = 0, but section 3.3
 * ("Initial affinity") also experiments with non-null constants and
 * random values, observing that the algorithm still adapts and the
 * transition frequency stays below one per 2|R| references.
 */
enum class OeInitPolicy : uint8_t
{
    ZeroAffinity,     ///< A_e = 0 (the paper's definition; default)
    ConstantAffinity, ///< A_e = a fixed non-null constant
    RandomAffinity,   ///< A_e = uniform over the affinity range
};

/**
 * Unlimited O_e storage (hash map), as assumed in section 4.1.
 */
class UnboundedOeStore : public OeStore
{
  public:
    /** @param affinity_bits saturation width for stored values. */
    explicit UnboundedOeStore(unsigned affinity_bits = 16,
                              OeInitPolicy init =
                                  OeInitPolicy::ZeroAffinity,
                              int64_t init_constant = 1000,
                              uint64_t seed = 17)
        : bits_(affinity_bits),
          init_(init),
          initConstant_(init_constant),
          rng_(seed)
    {
    }

    int64_t
    lookup(uint64_t line, int64_t delta) override
    {
        ++stats_.lookups;
        // Entries appear on lookup misses and direct store() writes,
        // never otherwise; the unbounded store never evicts.
        XMIG_AUDIT(stats_.misses <= stats_.lookups &&
                       map_.size() <= stats_.misses + stats_.stores &&
                       stats_.evictions == 0,
                   "O_e store accounting desync: %llu misses, %llu "
                   "lookups, %llu stores, %zu entries",
                   (unsigned long long)stats_.misses,
                   (unsigned long long)stats_.lookups,
                   (unsigned long long)stats_.stores, map_.size());
        auto it = map_.find(line);
        if (it != map_.end())
            return it->second;
        ++stats_.misses;
        const int64_t oe = saturateToBits(delta + initialAffinity(),
                                          bits_);
        map_.emplace(line, oe);
        return oe;
    }

    void
    store(uint64_t line, int64_t oe) override
    {
        ++stats_.stores;
        map_[line] = saturateToBits(oe, bits_);
    }

    std::optional<int64_t>
    peek(uint64_t line) const override
    {
        auto it = map_.find(line);
        if (it == map_.end())
            return std::nullopt;
        return it->second;
    }

    const OeStoreStats &stats() const override { return stats_; }

    bool
    corruptRandomEntry(Rng &rng) override
    {
        if (map_.empty())
            return false;
        auto it = map_.begin();
        std::advance(it, static_cast<long>(rng.below(map_.size())));
        const uint64_t flipped = static_cast<uint64_t>(it->second) ^
                                 (uint64_t{1} << rng.below(bits_));
        it->second = saturateToBits(static_cast<int64_t>(flipped), bits_);
        return true;
    }

    bool
    dropRandomEntry(Rng &rng) override
    {
        if (map_.empty())
            return false;
        auto it = map_.begin();
        std::advance(it, static_cast<long>(rng.below(map_.size())));
        map_.erase(it);
        return true;
    }

    void
    snapshotEntries(std::vector<OeEntrySnapshot> &out) const override
    {
        out.reserve(out.size() + map_.size());
        for (const auto &[line, oe] : map_)
            out.push_back({line, oe});
        std::sort(out.begin(), out.end(),
                  [](const OeEntrySnapshot &a, const OeEntrySnapshot &b) {
                      return a.line < b.line;
                  });
    }

    void
    restoreEntries(const std::vector<OeEntrySnapshot> &entries,
                   const OeStoreStats &stats) override
    {
        // A fresh map, not clear(): clear() keeps the bucket count,
        // which orders iteration, and the fault hooks pick entries in
        // iteration order. An emptied store must pick as a new one.
        std::unordered_map<uint64_t, int64_t>().swap(map_);
        for (const OeEntrySnapshot &e : entries)
            map_[e.line] = saturateToBits(e.oe, bits_);
        stats_ = stats;
    }

    uint64_t entries() const { return map_.size(); }

  private:
    /** A_e assigned at first reference (O_e = Delta + this). */
    int64_t
    initialAffinity()
    {
        switch (init_) {
          case OeInitPolicy::ZeroAffinity:
            return 0;
          case OeInitPolicy::ConstantAffinity:
            return initConstant_;
          case OeInitPolicy::RandomAffinity: {
            const int64_t range = SatInt::maxForBits(bits_);
            return static_cast<int64_t>(
                       rng_.below(2 * static_cast<uint64_t>(range))) -
                   range;
          }
        }
        return 0;
    }

    unsigned bits_;
    OeInitPolicy init_;
    int64_t initConstant_;
    Rng rng_;
    std::unordered_map<uint64_t, int64_t> map_;
    OeStoreStats stats_;
};

/**
 * Configuration of the finite affinity cache (section 3.5 / 4.2),
 * implemented by SoaAffinityStore (soa_oe_store.hpp).
 */
struct AffinityCacheConfig
{
    uint64_t entries = 8 * 1024;  ///< total entries (paper: 8k)
    unsigned ways = 4;            ///< associativity (paper: 4, skewed)
    bool skewed = true;
    unsigned affinityBits = 16;
};

} // namespace xmig
