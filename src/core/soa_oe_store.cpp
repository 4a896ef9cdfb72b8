#include "core/soa_oe_store.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/saturating.hpp"

namespace xmig {

namespace {

FrameArray
makeFrames(const AffinityCacheConfig &config)
{
    XMIG_ASSERT(config.entries % config.ways == 0,
                "affinity cache entries not divisible by ways");
    return FrameArray(config.entries / config.ways, config.ways,
                      config.skewed);
}

} // namespace

SoaAffinityStore::SoaAffinityStore(const AffinityCacheConfig &config)
    : config_(config),
      frames_(makeFrames(config)),
      oe_(config.entries, 0)
{
}

uint32_t
SoaAffinityStore::install(uint64_t line, const FrameArray::Slots &slots)
{
    FrameArray::Eviction victim;
    const uint32_t f = frames_.allocate(line, slots, victim);
    if (victim.valid)
        ++stats_.evictions;
    else
        ++resident_;
    XMIG_AUDIT(resident_ <= config_.entries,
               "install overfilled the affinity cache: %llu of %llu",
               (unsigned long long)resident_,
               (unsigned long long)config_.entries);
    return f;
}

int64_t
SoaAffinityStore::lookupFast(uint64_t line, int64_t delta)
{
    ++stats_.lookups;
    auditConsistency();
    const FrameArray::Slots slots = frames_.slots(line);
    const uint32_t hit = frames_.find(line, slots);
    if (hit != FrameArray::kNoFrame) {
        // Hot path: one probe yields tag match AND O_e together.
        frames_.touch(hit);
        return oe_[hit];
    }
    // Miss: allocate and force A_e = 0 by setting O_e = Delta.
    ++stats_.misses;
    const int64_t oe = saturateToBits(delta, config_.affinityBits);
    oe_[install(line, slots)] = oe;
    return oe;
}

void
SoaAffinityStore::storeFast(uint64_t line, int64_t oe)
{
    ++stats_.stores;
    auditConsistency();
    const int64_t sat = saturateToBits(oe, config_.affinityBits);
    const FrameArray::Slots slots = frames_.slots(line);
    uint32_t f = frames_.find(line, slots);
    if (f != FrameArray::kNoFrame) {
        frames_.touch(f);
    } else {
        // The entry was displaced while the line sat in the R-window;
        // re-allocate, as a hardware write-allocate affinity cache
        // would.
        f = install(line, slots);
    }
    oe_[f] = sat;
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
        XMIG_EXPECT(frames_.occupancy() == resident_,
                    "occupancy desync: %llu valid tags, %llu resident",
                    (unsigned long long)frames_.occupancy(),
                    (unsigned long long)resident_);
        const int64_t lo = SatInt::minForBits(config_.affinityBits);
        const int64_t hi = SatInt::maxForBits(config_.affinityBits);
        frames_.forEachValid([&](uint32_t f) {
            XMIG_EXPECT(oe_[f] >= lo && oe_[f] <= hi,
                        "O_e for line %llu escaped the %u-bit range: "
                        "%lld",
                        (unsigned long long)frames_.line(f),
                        config_.affinityBits, (long long)oe_[f]);
        });
    }
}

uint32_t
SoaAffinityStore::nthValidFrame(uint64_t target) const
{
    uint64_t seen = 0;
    for (uint32_t f = 0; f < frames_.frames(); ++f) {
        if (frames_.valid(f) && seen++ == target)
            return f;
    }
    XMIG_PANIC("nthValidFrame(%llu) out of %llu resident",
               (unsigned long long)target,
               (unsigned long long)resident_);
}

bool
SoaAffinityStore::corruptRandomEntry(Rng &rng)
{
    if (resident_ == 0)
        return false;
    const uint32_t f = nthValidFrame(rng.below(resident_));
    XMIG_AUDIT(frames_.valid(f), "fault pick %u is a free frame", f);
    const uint64_t flipped =
        static_cast<uint64_t>(oe_[f]) ^
        (uint64_t{1} << rng.below(config_.affinityBits));
    oe_[f] = saturateToBits(static_cast<int64_t>(flipped),
                            config_.affinityBits);
    return true;
}

bool
SoaAffinityStore::dropRandomEntry(Rng &rng)
{
    if (resident_ == 0)
        return false;
    // A corrupted tag loses the entry as a whole: the O_e word rides
    // in the frame, so tag and value go together by construction.
    const uint32_t f = nthValidFrame(rng.below(resident_));
    XMIG_AUDIT(frames_.valid(f), "fault pick %u is a free frame", f);
    frames_.invalidateFrame(f);
    --resident_;
    return true;
}

void
SoaAffinityStore::snapshotEntries(std::vector<OeEntrySnapshot> &out)
    const
{
    out.reserve(out.size() + resident_);
    frames_.forEachValid(
        [&](uint32_t f) { out.push_back({frames_.line(f), oe_[f]}); });
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
    // re-insertion. Insertion order fixes the replacement stamps, so
    // victim choices after a restore may differ from the original
    // run; the contents are exact. Greedy re-insertion may displace
    // an already-restored line; it re-initializes to A_e = 0 on its
    // next touch, like an ordinary capacity eviction.
    frames_.forEachValid([&](uint32_t f) { frames_.invalidateFrame(f); });
    resident_ = 0;
    for (const OeEntrySnapshot &e : entries) {
        oe_[install(e.line, frames_.slots(e.line))] =
            saturateToBits(e.oe, config_.affinityBits);
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
    const uint32_t f = frames_.find(line);
    if (f == FrameArray::kNoFrame)
        return std::nullopt;
    return oe_[f];
}

} // namespace xmig
