/**
 * @file
 * Bounded chunk queue for per-tenant reference streams (xmig-arena).
 *
 * Each tenant Session runs its push-model Workload on a producer
 * thread feeding a BatchQueue, and the arena's single consumer thread
 * pops chunks in whatever interleave the tenant scheduler dictates.
 * The queue is strictly single-producer single-consumer, bounded
 * (back-pressure keeps the producer within capacity() chunks of the
 * consumer, so memory stays O(1)), and FIFO — the consumer sees
 * exactly the producer's reference order. The consumer-side cancel()
 * lets the arena tear a session down while its producer is blocked
 * in push() mid-stream.
 *
 * A mutex + two condition variables, not a lock-free ring: one
 * handoff per K=64 references means the lock is touched ~16k times
 * per million references — measurement noise next to the simulation
 * work in each chunk, and trivially TSan-clean.
 */

#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "mem/ref.hpp"
#include "multicore/machine.hpp"
#include "util/contracts.hpp"
#include "util/thread_annotations.hpp"

namespace xmig {

/** SPSC bounded queue of reference chunks. */
class BatchQueue
{
  public:
    static constexpr size_t kChunkRefs = MigrationMachine::kBatchRefs;
    static constexpr size_t kDefaultSlots = 8;

    /** One producer-to-consumer handoff. */
    struct Chunk
    {
        std::array<MemRef, kChunkRefs> refs;
        uint32_t count = 0;
    };

    explicit BatchQueue(size_t slots = kDefaultSlots)
        : slots_(slots > 0 ? slots : 1), ring_(slots_)
    {
        XMIG_EXPECT(slots > 0, "BatchQueue slots clamped up from 0");
    }

    /** Ring capacity in chunks (fixed at construction). */
    size_t capacity() const { return slots_; }

    /**
     * Block until a slot frees, then enqueue a copy of `chunk`.
     * Returns false — with the chunk dropped — once the consumer has
     * cancelled the stream; producers must unwind, not keep pushing.
     */
    bool
    push(const Chunk &chunk)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (used_ >= slots_ && !cancelled_)
            notFull_.wait(lock);
        if (cancelled_)
            return false;
        ring_[tail_] = chunk;
        tail_ = (tail_ + 1) % slots_;
        ++used_;
        lock.unlock();
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Block until a chunk arrives or the queue is closed and drained.
     * Returns false only in the latter case.
     */
    bool
    pop(Chunk &out)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (used_ == 0 && !closed_)
            notEmpty_.wait(lock);
        if (used_ == 0)
            return false;
        out = ring_[head_];
        head_ = (head_ + 1) % slots_;
        --used_;
        lock.unlock();
        notFull_.notify_one();
        return true;
    }

    /** Producer is done; wakes a consumer blocked in pop(). */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        notEmpty_.notify_all();
    }

    /**
     * Consumer abandons the stream: discards buffered chunks and
     * makes every pending and future push() return false so the
     * producer thread can unwind. Also closes the queue, so a
     * subsequent pop() returns false rather than blocking.
     */
    void
    cancel()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            cancelled_ = true;
            closed_ = true;
            used_ = 0;
            head_ = 0;
            tail_ = 0;
        }
        notFull_.notify_all();
        notEmpty_.notify_all();
    }

    /** True once cancel() has been called. */
    bool
    cancelled() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return cancelled_;
    }

  private:
    const size_t slots_;
    mutable std::mutex mutex_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::vector<Chunk> ring_ XMIG_GUARDED_BY(mutex_);
    size_t head_ XMIG_GUARDED_BY(mutex_) = 0;
    size_t tail_ XMIG_GUARDED_BY(mutex_) = 0;
    size_t used_ XMIG_GUARDED_BY(mutex_) = 0;
    bool closed_ XMIG_GUARDED_BY(mutex_) = false;
    bool cancelled_ XMIG_GUARDED_BY(mutex_) = false;
};

} // namespace xmig
