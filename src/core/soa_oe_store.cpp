#include "core/soa_oe_store.hpp"

#include <algorithm>
#include <bit>

namespace xmig {

SoaAffinityStore::SoaAffinityStore(const AffinityCacheConfig &config)
    : config_(config),
      rng_(config.seed)
{
    XMIG_ASSERT(config.entries % config.ways == 0,
                "affinity cache entries not divisible by ways");
    setsPerWay_ = config.entries / config.ways;
    XMIG_ASSERT(std::has_single_bit(setsPerWay_),
                "affinity cache sets must be a power of two");
    lines_.resize(config.entries, 0);
    payload_.resize(config.entries, 0);
    lastUse_.resize(config.entries, 0);
    inserted_.resize(config.entries, 0);
    age_.resize(config.entries, 0);
    valid_.resize(config.entries, 0);
}

size_t
SoaAffinityStore::allocateIndex(uint64_t line, bool *evicted_valid)
{
    // pickVictim (tags.cpp): prefer the first invalid candidate in way
    // order; otherwise apply the policy over the candidate frames.
    unsigned victim = config_.ways;
    for (unsigned w = 0; w < config_.ways; ++w) {
        if (!valid_[slotOf(line, w)]) {
            victim = w;
            break;
        }
    }
    if (victim == config_.ways) {
        switch (config_.repl) {
          case ReplPolicy::Lru: {
            unsigned best = 0;
            for (unsigned w = 1; w < config_.ways; ++w) {
                if (lastUse_[slotOf(line, w)] <
                    lastUse_[slotOf(line, best)])
                    best = w;
            }
            victim = best;
            break;
          }
          case ReplPolicy::Fifo: {
            unsigned best = 0;
            for (unsigned w = 1; w < config_.ways; ++w) {
                if (inserted_[slotOf(line, w)] <
                    inserted_[slotOf(line, best)])
                    best = w;
            }
            victim = best;
            break;
          }
          case ReplPolicy::Random:
            victim = static_cast<unsigned>(rng_.below(config_.ways));
            break;
          case ReplPolicy::Age: {
            // Evict the oldest age; break ties by LRU timestamp.
            unsigned best = 0;
            for (unsigned w = 1; w < config_.ways; ++w) {
                const size_t c = slotOf(line, w);
                const size_t b = slotOf(line, best);
                if (age_[c] > age_[b] ||
                    (age_[c] == age_[b] && lastUse_[c] < lastUse_[b]))
                    best = w;
            }
            victim = best;
            break;
          }
        }
    }
    XMIG_AUDIT(victim < config_.ways,
               "victim selection escaped the way range: %u of %u",
               victim, config_.ways);
    const size_t i = slotOf(line, victim);
    *evicted_valid = valid_[i] != 0;
    ++clock_;
    lines_[i] = line;
    valid_[i] = 1;
    lastUse_[i] = clock_;
    inserted_[i] = clock_;
    age_[i] = 0;
    payload_[i] = 0;
    if (config_.repl == ReplPolicy::Age)
        ageTick();
    return i;
}

int64_t
SoaAffinityStore::lookupFast(uint64_t line, int64_t delta)
{
    ++stats_.lookups;
    auditConsistency();
    const size_t hit = findIndex(line);
    if (hit != kNoFrame) {
        // Hot path: one probe yields tag match AND O_e together.
        touchIndex(hit);
        return payload_[hit];
    }
    // Miss: allocate and force A_e = 0 by setting O_e = Delta.
    ++stats_.misses;
    bool victim_valid = false;
    const size_t i = allocateIndex(line, &victim_valid);
    if (victim_valid)
        ++stats_.evictions;
    else
        ++resident_;
    const int64_t oe = saturateToBits(delta, config_.affinityBits);
    payload_[i] = oe;
    return oe;
}

void
SoaAffinityStore::storeFast(uint64_t line, int64_t oe)
{
    ++stats_.stores;
    auditConsistency();
    const int64_t sat = saturateToBits(oe, config_.affinityBits);
    const size_t hit = findIndex(line);
    if (hit != kNoFrame) {
        touchIndex(hit);
        payload_[hit] = sat;
        return;
    }
    // The entry was displaced while the line sat in the R-window;
    // re-allocate, as a hardware write-allocate affinity cache would.
    bool victim_valid = false;
    const size_t i = allocateIndex(line, &victim_valid);
    if (victim_valid)
        ++stats_.evictions;
    else
        ++resident_;
    payload_[i] = sat;
}

void
SoaAffinityStore::auditConsistency()
{
    // Cheap bound every call: resident entries can never outgrow the
    // configured entry count, and every miss either filled a free slot
    // or displaced a victim.
    XMIG_AUDIT(resident_ <= config_.entries &&
                   stats_.evictions <= stats_.misses + stats_.stores,
               "affinity cache accounting desync: %llu resident / %llu "
               "entries, %llu evictions",
               (unsigned long long)resident_,
               (unsigned long long)config_.entries,
               (unsigned long long)stats_.evictions);
    if constexpr (kAuditParanoid) {
        if (++auditTick_ % 4096 != 0)
            return;
        uint64_t valid = 0;
        for (size_t i = 0; i < valid_.size(); ++i)
            valid += valid_[i] ? 1 : 0;
        XMIG_EXPECT(valid == resident_,
                    "occupancy desync: %llu valid tags, %llu resident",
                    (unsigned long long)valid,
                    (unsigned long long)resident_);
        const int64_t lo = SatInt::minForBits(config_.affinityBits);
        const int64_t hi = SatInt::maxForBits(config_.affinityBits);
        for (size_t i = 0; i < valid_.size(); ++i) {
            if (!valid_[i])
                continue;
            XMIG_EXPECT(payload_[i] >= lo && payload_[i] <= hi,
                        "O_e for line %llu escaped the %u-bit range: "
                        "%lld",
                        (unsigned long long)lines_[i],
                        config_.affinityBits, (long long)payload_[i]);
        }
    }
}

uint64_t
SoaAffinityStore::nthValidLine(uint64_t target) const
{
    // Frame-index order == SkewedTags/SetAssocTags forEachValid order.
    uint64_t i = 0;
    for (size_t f = 0; f < valid_.size(); ++f) {
        if (valid_[f] && i++ == target)
            return lines_[f];
    }
    XMIG_PANIC("nthValidLine(%llu) out of %llu resident",
               (unsigned long long)target,
               (unsigned long long)resident_);
}

bool
SoaAffinityStore::corruptRandomEntry(Rng &rng)
{
    if (resident_ == 0)
        return false;
    const uint64_t line = nthValidLine(rng.below(resident_));
    const size_t i = findIndex(line);
    XMIG_ASSERT(i != kNoFrame, "valid frame vanished under fault "
                               "injection");
    const uint64_t flipped =
        static_cast<uint64_t>(payload_[i]) ^
        (uint64_t{1} << rng.below(config_.affinityBits));
    payload_[i] = saturateToBits(static_cast<int64_t>(flipped),
                                 config_.affinityBits);
    return true;
}

bool
SoaAffinityStore::dropRandomEntry(Rng &rng)
{
    if (resident_ == 0)
        return false;
    const uint64_t line = nthValidLine(rng.below(resident_));
    const size_t i = findIndex(line);
    // A corrupted tag loses the entry as a whole: the O_e word rides
    // in the frame, so tag and value go together by construction.
    XMIG_AUDIT(i != kNoFrame, "line %llu had no tag to drop",
               (unsigned long long)line);
    valid_[i] = 0;
    --resident_;
    return true;
}

void
SoaAffinityStore::snapshotEntries(std::vector<OeEntrySnapshot> &out)
    const
{
    out.reserve(out.size() + resident_);
    for (size_t f = 0; f < valid_.size(); ++f) {
        if (valid_[f])
            out.push_back({lines_[f], payload_[f]});
    }
    std::sort(out.begin(), out.end(),
              [](const OeEntrySnapshot &a, const OeEntrySnapshot &b) {
                  return a.line < b.line;
              });
}

void
SoaAffinityStore::restoreEntries(
    const std::vector<OeEntrySnapshot> &entries, const OeStoreStats &stats)
{
    // Rebuild from scratch: invalidate everything, then greedy sorted
    // re-insertion. Insertion order fixes the replacement ages, so
    // victim choices after a restore may differ from the original
    // run; the contents are exact. Greedy re-insertion may displace
    // an already-restored line; it re-initializes to A_e = 0 on its
    // next touch, like an ordinary capacity eviction.
    std::fill(valid_.begin(), valid_.end(), uint8_t{0});
    resident_ = 0;

    bool victim_valid = false;
    for (const OeEntrySnapshot &e : entries) {
        const size_t i = allocateIndex(e.line, &victim_valid);
        if (!victim_valid)
            ++resident_;
        payload_[i] = saturateToBits(e.oe, config_.affinityBits);
    }
    stats_ = stats;
    XMIG_AUDIT(resident_ <= config_.entries &&
                   resident_ <= entries.size(),
               "restore overfilled the affinity cache: %llu resident "
               "from %zu snapshot entries (%llu frames)",
               (unsigned long long)resident_, entries.size(),
               (unsigned long long)config_.entries);
}

std::optional<int64_t>
SoaAffinityStore::peek(uint64_t line) const
{
    const size_t i = findIndex(line);
    if (i == kNoFrame)
        return std::nullopt;
    return payload_[i];
}

} // namespace xmig
