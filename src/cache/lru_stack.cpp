#include "cache/lru_stack.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace xmig {

LruStack::LruStack(std::vector<uint64_t> capacities)
    : list_(1 << 12), // doubles as lines arrive
      capacities_(std::move(capacities)),
      markers_(capacities_.size(), RecencyList::kNil),
      hits_(capacities_.size() + 1, 0)
{
    XMIG_ASSERT(!capacities_.empty() && capacities_.size() < 255,
                "%zu capacities; a stack reads 1 to 254",
                capacities_.size());
    for (size_t i = 0; i < capacities_.size(); ++i) {
        XMIG_ASSERT(capacities_[i] > (i == 0 ? 0 : capacities_[i - 1]),
                    "capacities must be positive and strictly ascending");
    }
}

void
LruStack::stepMarkers(unsigned s)
{
    for (unsigned i = 0; i < s; ++i) {
        const uint32_t m = markers_[i];
        segment_[m] = static_cast<uint8_t>(i + 1);
        markers_[i] = list_.prev(m);
    }
}

void
LruStack::access(uint64_t line)
{
    ++references_;
    const uint32_t x = list_.find(line);
    if (x == RecencyList::kNil) {
        list_.pushFront(line);
        segment_.push_back(0);
        stepMarkers(placed_);
        if (placed_ < capacities_.size() &&
            list_.size() == capacities_[placed_])
            markers_[placed_++] = list_.tail();
        return;
    }
    const unsigned s = segment_[x];
    ++hits_[s];
    if (x == list_.head())
        return;
    // A marker on x passes to the line above it, which x's move shifts
    // down to x's depth.
    const uint32_t above = list_.prev(x);
    list_.moveToFront(x);
    segment_[x] = 0;
    if (s < placed_ && markers_[s] == x)
        markers_[s] = above;
    stepMarkers(s);
}

uint64_t
LruStack::missesAtSize(uint64_t capacity) const
{
    uint64_t hits = 0;
    for (size_t i = 0; i < capacities_.size(); ++i) {
        hits += hits_[i];
        if (capacities_[i] == capacity)
            return references_ - hits;
    }
    XMIG_PANIC("the stack does not count capacity %llu",
               (unsigned long long)capacity);
}

} // namespace xmig
