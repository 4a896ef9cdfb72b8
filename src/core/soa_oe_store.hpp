/**
 * @file
 * The finite affinity cache of section 3.5 / 4.2: a FrameArray plus
 * an O_e column.
 *
 * The tags, replacement stamps and placement are the cache
 * substrate's own FrameArray (cache/frames.hpp), so the affinity
 * cache indexes and evicts exactly as a cache of the same geometry
 * would; the O_e values live in a frame-indexed column beside it.
 * test_oe_store pins the full decision stream (hits, victims,
 * evictions, fault picks, snapshot order) under every geometry and
 * ReplPolicy with golden digests.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/frames.hpp"
#include "core/oe_store.hpp"
#include "util/rng.hpp"

namespace xmig {

/**
 * Finite, tagged affinity cache.
 *
 * The O_e value sits beside its tag, as section 3.5's hardware array
 * stores tag + affinity side by side: a hit is one probe that yields
 * tag match and value together. Misses install O_e = Delta, so the
 * transition filter is not perturbed by untracked lines (section 4.2
 * relies on this to suppress migrations for working-sets far larger
 * than the total L2 capacity). Supports every AffinityCacheConfig:
 * skewed or set-associative indexing, any ReplPolicy.
 */
class SoaAffinityStore : public OeStore
{
  public:
    explicit SoaAffinityStore(const AffinityCacheConfig &config);

    int64_t
    lookup(uint64_t line, int64_t delta) override
    {
        return lookupFast(line, delta);
    }

    void
    store(uint64_t line, int64_t oe) override
    {
        storeFast(line, oe);
    }

    std::optional<int64_t> peek(uint64_t line) const override;
    const OeStoreStats &stats() const override { return stats_; }

    bool corruptRandomEntry(Rng &rng) override;
    bool dropRandomEntry(Rng &rng) override;

    void snapshotEntries(std::vector<OeEntrySnapshot> &out) const override;
    void restoreEntries(const std::vector<OeEntrySnapshot> &entries,
                        const OeStoreStats &stats) override;

    /**
     * Non-virtual hot-path entry points: batch loops that hold a
     * concrete SoaAffinityStore* call these directly, skipping the
     * vtable. The virtual overrides above are thin forwards, so both
     * paths are literally the same code.
     */
    int64_t lookupFast(uint64_t line, int64_t delta);
    void storeFast(uint64_t line, int64_t oe);

    /** Valid entries; maintained incrementally, O(1). */
    uint64_t occupancy() const { return resident_; }
    const AffinityCacheConfig &config() const { return config_; }

    /**
     * Approximate storage cost in bits: per entry, `tag_bits` of tag,
     * the affinity value, and 2 age bits (section 3.5's accounting).
     */
    uint64_t
    storageBits(unsigned tag_bits = 20) const
    {
        return config_.entries *
               (uint64_t(tag_bits) + config_.affinityBits + 2);
    }

  private:
    /** Allocate a frame for `line`, keeping the occupancy count. */
    uint32_t install(uint64_t line, const FrameArray::Slots &slots);

    /** Cheap per-call accounting audit + periodic paranoid sweep. */
    void auditConsistency();

    /** The `target`-th valid frame, in frame order. */
    uint32_t nthValidFrame(uint64_t target) const;

    AffinityCacheConfig config_;
    FrameArray frames_;
    std::vector<int64_t> oe_; ///< O_e value, frame-indexed

    uint64_t resident_ = 0; ///< valid frames, maintained incrementally
    OeStoreStats stats_;
    uint64_t auditTick_ = 0; ///< paranoid reconciliation cadence
};

} // namespace xmig
