#include "cache/frames.hpp"

#include <bit>
#include <cstring>

namespace xmig {

FrameArray::FrameArray(uint64_t sets, unsigned ways, bool skewed)
    : sets_(sets),
      ways_(ways),
      skewed_(skewed)
{
    XMIG_ASSERT(sets >= 1 && std::has_single_bit(sets),
                "set count must be a power of two");
    XMIG_ASSERT(ways >= 1, "need at least one way");
    XMIG_ASSERT(!skewed || ways <= kMaxSkewedWays,
                "a skewed array has at most %u banks, not %u",
                kMaxSkewedWays, ways);
    XMIG_ASSERT(sets * ways < kNoFrame,
                "%llu frames overflow the 32-bit frame index",
                (unsigned long long)(sets * ways));
    // Every byte of kInvalidTag is 0xff, so one memset frees every
    // frame; a scalar fill loop's speed hangs on its code placement.
    tag_.resize(sets * ways);
    std::memset(tag_.data(), 0xff, tag_.size() * sizeof(uint64_t));
    stamp_.assign(sets * ways, 0);
    flags_.assign(sets * ways, 0);
}

uint64_t
FrameArray::occupancy() const
{
    uint64_t n = 0;
    for (const uint64_t tag : tag_)
        n += tag != kInvalidTag ? 1 : 0;
    return n;
}

} // namespace xmig
