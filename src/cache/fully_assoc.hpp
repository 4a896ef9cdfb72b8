/**
 * @file
 * The flat recency list of the section-4.1 profile path, and its
 * bounded use: the O(1) fully-associative LRU L1.
 *
 * Section 4.1 filters each reference stream through 16-KB
 * fully-associative LRU IL1/DL1 caches, then profiles the post-L1
 * stream with Mattson stacks (lru_stack.hpp, the unbounded use). Lines
 * sit in one array of slots linked most recent first by 32-bit indexes,
 * so no reference allocates. One open-addressing table maps a line to
 * its slot: a power of two of buckets, linear probing from a Fibonacci
 * hash, backward-shift deletion, doubling past half full.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "util/contracts.hpp"

namespace xmig {

/** Line addresses in recency order, with a line -> slot table. */
class RecencyList
{
  public:
    static constexpr uint32_t kNil = ~uint32_t{0};

    /** @param buckets initial table size: a power of two, at least 2. */
    explicit RecencyList(uint64_t buckets) { rehash(buckets); }

    uint64_t size() const { return slots_.size(); }
    uint32_t head() const { return head_; } ///< MRU slot (kNil: empty)
    uint32_t tail() const { return tail_; } ///< LRU slot
    uint32_t prev(uint32_t s) const { return slots_[s].prev; }

    /** The slot holding `line`, or kNil. */
    uint32_t
    find(uint64_t line) const
    {
        for (uint64_t b = home(line);; b = (b + 1) & mask_) {
            if (buckets_[b].slot == kNil || buckets_[b].line == line)
                return buckets_[b].slot;
        }
    }

    /** Make slot `s` the most recent. */
    void
    moveToFront(uint32_t s)
    {
        if (s == head_)
            return;
        const Slot &x = slots_[s];
        slots_[x.prev].next = x.next;
        (x.next != kNil ? slots_[x.next].prev : tail_) = x.prev;
        linkFront(s);
    }

    /** Put the absent `line` at the front, in a new slot. */
    void
    pushFront(uint64_t line)
    {
        XMIG_ASSERT(slots_.size() < kNil, "recency list full");
        slots_.push_back({line, kNil, kNil});
        const auto s = static_cast<uint32_t>(slots_.size() - 1);
        if (2 * slots_.size() > buckets_.size())
            rehash(2 * buckets_.size());
        else
            insert(line, s);
        linkFront(s);
    }

    /** Hand the tail's slot to the absent `line`, at the front. */
    void
    recycleTail(uint64_t line)
    {
        const uint32_t s = tail_;
        // Backward-shift deletion of the tail's line: each later bucket
        // of its probe run whose probe path crosses the hole fills it.
        uint64_t hole = home(slots_[s].line);
        while (buckets_[hole].line != slots_[s].line)
            hole = (hole + 1) & mask_;
        for (uint64_t b = (hole + 1) & mask_; buckets_[b].slot != kNil;
             b = (b + 1) & mask_) {
            if (((b - home(buckets_[b].line)) & mask_) >=
                ((b - hole) & mask_)) {
                buckets_[hole] = buckets_[b];
                hole = b;
            }
        }
        buckets_[hole].slot = kNil;
        slots_[s].line = line;
        insert(line, s);
        moveToFront(s);
    }

  private:
    struct Slot
    {
        uint64_t line;
        uint32_t prev, next;
    };

    struct Bucket
    {
        uint64_t line;
        uint32_t slot; ///< kNil: empty
    };

    uint64_t
    home(uint64_t line) const
    {
        return (line * 0x9e3779b97f4a7c15ull) >> shift_;
    }

    void
    linkFront(uint32_t s)
    {
        slots_[s].prev = kNil;
        slots_[s].next = head_;
        (head_ != kNil ? slots_[head_].prev : tail_) = s;
        head_ = s;
    }

    void
    insert(uint64_t line, uint32_t s)
    {
        uint64_t b = home(line);
        while (buckets_[b].slot != kNil)
            b = (b + 1) & mask_;
        buckets_[b] = {line, s};
    }

    void
    rehash(uint64_t buckets)
    {
        buckets_.assign(buckets, {0, kNil});
        mask_ = buckets - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
        for (uint32_t s = 0; s < slots_.size(); ++s)
            insert(slots_[s].line, s);
    }

    std::vector<Slot> slots_;
    std::vector<Bucket> buckets_;
    uint64_t mask_ = 0;
    unsigned shift_ = 0;
    uint32_t head_ = kNil, tail_ = kNil;
};

/**
 * Fully-associative LRU cache over line addresses: the recency list
 * bounded at `capacity` lines, its table 4 x capacity so it never
 * grows. Loads and stores are not distinguished (section 4.1).
 */
class FullyAssocLru : private RecencyList
{
  public:
    /** @param capacity_lines number of line frames (e.g. 256 = 16 KB). */
    explicit FullyAssocLru(uint64_t capacity_lines)
        : RecencyList(std::bit_ceil(4 * capacity_lines)),
          capacity_(capacity_lines)
    {
        XMIG_ASSERT(capacity_lines >= 1, "capacity must be positive");
    }

    /** Access `line`; true on a hit. A miss in a full cache evicts the LRU. */
    bool
    access(uint64_t line)
    {
        const uint32_t s = find(line);
        if (s != kNil) {
            moveToFront(s);
            return true;
        }
        if (size() == capacity_)
            recycleTail(line);
        else
            pushFront(line);
        return false;
    }

    /** True if `line` is resident (no LRU update). */
    bool contains(uint64_t line) const { return find(line) != kNil; }

    using RecencyList::size;

  private:
    uint64_t capacity_;
};

} // namespace xmig
