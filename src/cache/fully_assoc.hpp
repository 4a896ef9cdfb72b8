/**
 * @file
 * O(1) fully-associative LRU cache.
 *
 * Section 4.1 filters every benchmark's reference stream through
 * 16-KB fully-associative LRU IL1/DL1 caches before profiling. At a
 * few hundred frames, a linear tag scan would dominate simulation
 * time over tens of millions of references, so this model uses a hash
 * map plus an intrusive recency list for constant-time accesses.
 */

#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "cache/cache.hpp" // CacheStats
#include "util/contracts.hpp"

namespace xmig {

/**
 * Fully-associative LRU cache over line addresses.
 *
 * Read-allocate semantics only: the section-4.1 experiments do not
 * distinguish loads from stores. Use Cache for write-policy modeling.
 */
class FullyAssocLru
{
  public:
    /** @param capacity_lines number of line frames (e.g. 256 = 16 KB). */
    explicit FullyAssocLru(uint64_t capacity_lines)
        : capacity_(capacity_lines)
    {
        XMIG_ASSERT(capacity_lines >= 1, "capacity must be positive");
        map_.reserve(capacity_lines * 2);
    }

    /**
     * Access `line`. Returns true on hit. On miss the line is
     * allocated, evicting the LRU line when full; *evicted_line
     * receives it and *evicted_valid is set (both optional).
     */
    bool
    access(uint64_t line, uint64_t *evicted_line = nullptr,
           bool *evicted_valid = nullptr)
    {
        ++stats_.accesses;
        return accessTallied(line, stats_.hits, evicted_line,
                             evicted_valid);
    }

    /**
     * access() with the accesses/hits tallies kept by the caller and
     * folded in with settleBatchStats(), like Cache::accessTallied().
     */
    bool
    accessTallied(uint64_t line, uint64_t &hits,
                  uint64_t *evicted_line = nullptr,
                  bool *evicted_valid = nullptr)
    {
        if (evicted_valid)
            *evicted_valid = false;
        auto it = map_.find(line);
        if (it != map_.end()) {
            ++hits;
            recency_.splice(recency_.begin(), recency_, it->second);
            return true;
        }
        ++stats_.misses;
        if (map_.size() == capacity_) {
            const uint64_t victim = recency_.back();
            recency_.pop_back();
            map_.erase(victim);
            if (evicted_line)
                *evicted_line = victim;
            if (evicted_valid)
                *evicted_valid = true;
        }
        recency_.push_front(line);
        map_.emplace(line, recency_.begin());
        return false;
    }

    /** Fold a batch loop's tallies into the stats. */
    void
    settleBatchStats(uint64_t accesses, uint64_t hits)
    {
        stats_.accesses += accesses;
        stats_.hits += hits;
    }

    /** True if `line` is resident (no LRU update). */
    bool contains(uint64_t line) const { return map_.count(line) != 0; }

    uint64_t size() const { return map_.size(); }
    uint64_t capacity() const { return capacity_; }

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = {}; }

  private:
    uint64_t capacity_;
    std::list<uint64_t> recency_; // front = MRU
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> map_;
    CacheStats stats_;
};

} // namespace xmig
