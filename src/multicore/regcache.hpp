/**
 * @file
 * Register-update cache (section 6 extension).
 *
 * Register updates dominate the update-bus bandwidth (section 2.3's
 * ~45 B/cycle is mostly the 4 register values). The paper's
 * conclusion proposes filtering them "with a small register-update
 * cache: a register update would be sent only upon evicting an entry
 * from the register-update cache. Upon a migration, the content of
 * the register-update cache would be spilled on the update bus."
 *
 * This module implements that structure: a small fully-associative
 * LRU cache over logical register ids. Repeated writes to a hot
 * register coalesce into one eventual broadcast, trading steady-state
 * bandwidth for a burst (the spill) at each migration plus a bounded
 * staleness window on inactive cores.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/contracts.hpp"

namespace xmig {

/** Register-update cache configuration. */
struct RegCacheConfig
{
    unsigned entries = 8; ///< cached registers (0 = bypass)
};

/** Broadcast-traffic counters. */
struct RegCacheStats
{
    uint64_t writes = 0;          ///< register writes observed
    uint64_t broadcasts = 0;      ///< updates actually sent (evictions)
    uint64_t migrationSpills = 0; ///< migrations serviced
    uint64_t spilledEntries = 0;  ///< updates sent during spills

    /** Fraction of writes that reached the bus (lower is better). */
    double
    broadcastRatio() const
    {
        return writes == 0
            ? 0.0
            : static_cast<double>(broadcasts + spilledEntries) /
              static_cast<double>(writes);
    }
};

/**
 * Small fully-associative LRU cache over logical registers.
 */
class RegisterUpdateCache
{
  public:
    static constexpr unsigned kNumRegisters = 64; ///< architectural count

    explicit RegisterUpdateCache(const RegCacheConfig &config)
        : config_(config)
    {
        slots_.reserve(config.entries);
    }

    /**
     * Observe a register write on the active core. Returns true if
     * an update was broadcast now (cache bypassed or an entry was
     * evicted to make room).
     */
    bool
    write(unsigned reg)
    {
        XMIG_ASSERT(reg < kNumRegisters, "register %u", reg);
        ++stats_.writes;
        if (config_.entries == 0) {
            ++stats_.broadcasts;
            return true; // no cache: broadcast immediately
        }
        // Hit: coalesce with the pending update.
        for (size_t i = 0; i < slots_.size(); ++i) {
            if (slots_[i] == reg) {
                // Move to MRU position.
                slots_.erase(slots_.begin() +
                             static_cast<ptrdiff_t>(i));
                slots_.push_back(reg);
                return false;
            }
        }
        bool broadcast = false;
        if (slots_.size() == config_.entries) {
            // Evict LRU: its pending update goes on the bus.
            slots_.erase(slots_.begin());
            ++stats_.broadcasts;
            broadcast = true;
        }
        slots_.push_back(reg);
        return broadcast;
    }

    /**
     * A migration is happening: spill every pending update onto the
     * bus so the target core's register file is complete. Returns
     * the number of updates spilled (they add to the migration
     * penalty).
     */
    uint64_t
    migrate()
    {
        ++stats_.migrationSpills;
        const uint64_t spilled = slots_.size();
        stats_.spilledEntries += spilled;
        slots_.clear();
        return spilled;
    }

    /** Registers with pending (unbroadcast) updates. */
    size_t pending() const { return slots_.size(); }

    const RegCacheStats &stats() const { return stats_; }
    const RegCacheConfig &config() const { return config_; }

  private:
    RegCacheConfig config_;
    std::vector<unsigned> slots_; ///< LRU order, back = MRU
    RegCacheStats stats_;
};

} // namespace xmig
