/**
 * @file
 * The finite affinity cache of section 3.5 / 4.2, stored as a
 * structure of arrays.
 *
 * Each frame is a tag (the full line address), its O_e value and its
 * replacement state. Instead of one record per frame, every field
 * lives in its own contiguous vector: a probe touches ~8 bytes per
 * candidate way, the 8k-entry tag array fits in L1, and the periodic
 * age sweep of the Age replacement policy runs over two plain byte
 * arrays the compiler can vectorize.
 *
 * Placement, replacement and clock semantics are those of the cache
 * substrate's SkewedTags / SetAssocTags (cache/tags.hpp), so the
 * affinity cache evicts exactly as a TagStore of the same geometry
 * would. test_oe_store pins the full decision stream (hits, victims,
 * evictions, fault picks, snapshot order) under every geometry and
 * ReplPolicy with golden digests.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/tags.hpp"
#include "core/oe_store.hpp"
#include "util/contracts.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"
#include "util/saturating.hpp"

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
    static constexpr size_t kNoFrame = ~size_t{0};

    /** Candidate frame index of `line` in `way` (bank for skewed). */
    size_t
    slotOf(uint64_t line, unsigned way) const
    {
        if (config_.skewed) {
            // SkewedTags::slotOf: bank 0 is straight modulo, other
            // banks use the skewing hashes; frames are bank-major.
            const uint64_t set = way == 0
                ? (line & (setsPerWay_ - 1))
                : skewHash(line, way, setsPerWay_);
            return size_t(way) * setsPerWay_ + set;
        }
        // SetAssocTags: set-major layout, way-contiguous within a set.
        return size_t(line & (setsPerWay_ - 1)) * config_.ways + way;
    }

    /** Frame index holding `line`, or kNoFrame. */
    size_t
    findIndex(uint64_t line) const
    {
        if (config_.skewed) {
            for (unsigned w = 0; w < config_.ways; ++w) {
                const size_t i = slotOf(line, w);
                if (valid_[i] && lines_[i] == line)
                    return i;
            }
            return kNoFrame;
        }
        const size_t base = size_t(line & (setsPerWay_ - 1)) *
                            config_.ways;
        for (unsigned w = 0; w < config_.ways; ++w) {
            if (valid_[base + w] && lines_[base + w] == line)
                return base + w;
        }
        return kNoFrame;
    }

    /** SkewedTags/SetAssocTags::touch, over the exploded arrays. */
    void
    touchIndex(size_t i)
    {
        lastUse_[i] = ++clock_;
        age_[i] = 0;
        if (config_.repl == ReplPolicy::Age)
            ageTick();
    }

    /** The shared ageTick: vectorizable over the byte arrays. */
    void
    ageTick()
    {
        const uint64_t window = lines_.size() / 4 + 1;
        if (clock_ % window != 0)
            return;
        for (size_t i = 0; i < age_.size(); ++i) {
            if (valid_[i] && age_[i] < 3)
                ++age_[i];
        }
    }

    /** pickVictim + frame install, replicating TagStore::allocate. */
    size_t allocateIndex(uint64_t line, bool *evicted_valid);

    /** Cheap per-call accounting audit + periodic paranoid sweep. */
    void auditConsistency();

    /** The `target`-th valid frame's line, in frame-index order. */
    uint64_t nthValidLine(uint64_t target) const;

    AffinityCacheConfig config_;
    uint64_t setsPerWay_ = 0; ///< sets per bank (skewed) or set count
    uint64_t clock_ = 0;      ///< replacement clock (TagStore::clock_)
    Rng rng_;                 ///< consumed only by ReplPolicy::Random

    // The frame record, exploded (one slot per frame, frame-indexed).
    std::vector<uint64_t> lines_;   ///< tag: full line address
    std::vector<int64_t> payload_;  ///< O_e value
    std::vector<uint64_t> lastUse_; ///< LRU timestamp
    std::vector<uint64_t> inserted_; ///< FIFO timestamp
    std::vector<uint8_t> age_;      ///< 2-bit age counters
    std::vector<uint8_t> valid_;    ///< validity (0/1)

    uint64_t resident_ = 0; ///< valid entries (mirrors tag occupancy)
    OeStoreStats stats_;
    uint64_t auditTick_ = 0; ///< paranoid reconciliation cadence
};

} // namespace xmig
