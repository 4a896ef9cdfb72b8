/**
 * @file
 * The R-window: the |R| most recently referenced lines.
 *
 * The paper implements R as a FIFO (a memory array plus a circular
 * pointer) storing, for each slot, the line address and its I_e value
 * (section 3.2, "Postponed update"). A FIFO may hold duplicates; the
 * paper notes that exact distinct-LRU semantics would need a fully
 * associative memory and is "not an essential feature". Both variants
 * are provided: Fifo is the hardware-faithful default, DistinctLru is
 * the idealized reference used by the equivalence tests.
 */

#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "util/contracts.hpp"

namespace xmig {

/** Window organization. */
enum class WindowKind : uint8_t
{
    Fifo,        ///< circular buffer; duplicates possible (hardware)
    DistinctLru, ///< true set of |R| distinct lines, LRU-ordered
};

/** One R-window slot. */
struct WindowSlot
{
    uint64_t line = 0;
    int64_t ie = 0;
};

/**
 * FIFO R-window.
 */
class FifoWindow
{
  public:
    explicit FifoWindow(size_t capacity)
        : slots_(capacity)
    {
        XMIG_ASSERT(capacity >= 1, "R-window must hold at least 1 entry");
    }

    /**
     * Push (line, ie); if the window was full, the displaced slot is
     * copied to `evicted` and true is returned.
     */
    bool
    push(uint64_t line, int64_t ie, WindowSlot *evicted)
    {
        XMIG_AUDIT(size_ <= slots_.size() && head_ < slots_.size(),
                   "FIFO occupancy desync: size %zu / %zu, head %zu",
                   size_, slots_.size(), head_);
        bool full = size_ == slots_.size();
        if (full)
            *evicted = slots_[head_];
        // FIFO order invariant: when full, the slot at head_ is the
        // oldest entry, so overwriting it displaces exactly the
        // |R|-references-old line the postponed-update identities
        // assume (O_f = I_f + 2 Delta for the *oldest* member).
        XMIG_AUDIT(!full || wrap(head_ + slots_.size() - size_) == head_,
                   "FIFO eviction is not the oldest slot");
        slots_[head_] = {line, ie};
        if (++head_ == slots_.size())
            head_ = 0;
        if (!full)
            ++size_;
        return full;
    }

    size_t size() const { return size_; }
    size_t capacity() const { return slots_.size(); }
    bool full() const { return size_ == slots_.size(); }

    /**
     * Find the most recent slot holding `line` (nullptr if absent).
     * O(|R|); used only by snapshots and tests, never on the fast
     * path, mirroring the fact that the hardware FIFO is not
     * associatively searchable.
     */
    const WindowSlot *
    find(uint64_t line) const
    {
        for (size_t i = 0; i < size_; ++i) {
            // Scan from most recent to oldest.
            size_t idx = wrap(head_ + slots_.size() - 1 - i);
            if (slots_[idx].line == line)
                return &slots_[idx];
        }
        return nullptr;
    }

    /** Visit slots oldest-first. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (size_t i = 0; i < size_; ++i) {
            size_t idx = wrap(head_ + slots_.size() - size_ + i);
            fn(slots_[idx]);
        }
    }

    /** Append the live slots, oldest-first (checkpointing). */
    void
    snapshot(std::vector<WindowSlot> &out) const
    {
        forEach([&out](const WindowSlot &slot) { out.push_back(slot); });
    }

    /**
     * Replace the contents with `slots` (oldest-first). Re-pushing
     * reproduces the logical FIFO order regardless of where head_
     * sat when the snapshot was taken.
     */
    void
    restore(const std::vector<WindowSlot> &slots)
    {
        XMIG_ASSERT(slots.size() <= slots_.size(),
                    "checkpoint window %zu exceeds capacity %zu",
                    slots.size(), slots_.size());
        head_ = 0;
        size_ = 0;
        WindowSlot dropped;
        for (const WindowSlot &slot : slots)
            push(slot.line, slot.ie, &dropped);
    }

  private:
    /** Slot index `i` (< 2 x capacity) wrapped without a divide. */
    size_t
    wrap(size_t i) const
    {
        return i >= slots_.size() ? i - slots_.size() : i;
    }

    std::vector<WindowSlot> slots_;
    size_t head_ = 0;
    size_t size_ = 0;
};

/**
 * Distinct-LRU R-window: an LRU-ordered set of at most |R| lines.
 */
class DistinctLruWindow
{
  public:
    explicit DistinctLruWindow(size_t capacity)
        : capacity_(capacity)
    {
        XMIG_ASSERT(capacity >= 1, "R-window must hold at least 1 entry");
    }

    /** True if `line` is in the window. */
    bool contains(uint64_t line) const { return map_.count(line) != 0; }

    /** I_e of a member line (must be present). */
    int64_t
    ieOf(uint64_t line) const
    {
        auto it = map_.find(line);
        XMIG_ASSERT(it != map_.end(), "line not in R-window");
        return it->second->ie;
    }

    /** Move a member line to most-recent position. */
    void
    touch(uint64_t line)
    {
        auto it = map_.find(line);
        XMIG_ASSERT(it != map_.end(), "line not in R-window");
        order_.splice(order_.begin(), order_, it->second);
    }

    /**
     * Insert a non-member line; if the window was full, the evicted
     * LRU slot is copied to `evicted` and true is returned.
     */
    bool
    insert(uint64_t line, int64_t ie, WindowSlot *evicted)
    {
        XMIG_ASSERT(!contains(line), "line already in R-window");
        XMIG_AUDIT(order_.size() == map_.size() &&
                       order_.size() <= capacity_,
                   "LRU window desync: list %zu, map %zu, capacity %zu",
                   order_.size(), map_.size(), capacity_);
        bool evict = order_.size() == capacity_;
        if (evict) {
            *evicted = order_.back();
            map_.erase(order_.back().line);
            order_.pop_back();
        }
        order_.push_front({line, ie});
        map_[line] = order_.begin();
        if constexpr (kAuditParanoid) {
            // Full recency-structure reconciliation: every map entry
            // must point at a live list node holding its own key.
            for (const auto &[key, it] : map_) {
                XMIG_EXPECT(it->line == key,
                            "LRU map entry %llu points at slot of %llu",
                            (unsigned long long)key,
                            (unsigned long long)it->line);
            }
        }
        return evict;
    }

    size_t size() const { return order_.size(); }
    size_t capacity() const { return capacity_; }
    bool full() const { return order_.size() == capacity_; }

    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (auto it = order_.rbegin(); it != order_.rend(); ++it)
            fn(*it);
    }

    /** Append the live slots, oldest-first (checkpointing). */
    void
    snapshot(std::vector<WindowSlot> &out) const
    {
        forEach([&out](const WindowSlot &slot) { out.push_back(slot); });
    }

    /** Replace the contents with `slots` (oldest-first, distinct). */
    void
    restore(const std::vector<WindowSlot> &slots)
    {
        XMIG_ASSERT(slots.size() <= capacity_,
                    "checkpoint window %zu exceeds capacity %zu",
                    slots.size(), capacity_);
        order_.clear();
        map_.clear();
        WindowSlot dropped;
        for (const WindowSlot &slot : slots)
            insert(slot.line, slot.ie, &dropped);
    }

  private:
    size_t capacity_;
    std::list<WindowSlot> order_; // front = MRU
    std::unordered_map<uint64_t, std::list<WindowSlot>::iterator> map_;
};

} // namespace xmig
