/**
 * @file
 * The chunked feed: one reference stream, any number of consumers.
 *
 * Every experiment is trace-driven: a workload pushes its stream into
 * a RefSink and one or more consumers see it side by side — Table 2's
 * 1-core baseline beside the 4-core migration machine, the four
 * machines of the core-count and prefetch studies, an arena tenant's
 * machine, the bare L1 of Table 1 and Figures 4/5. ChunkFeed is that
 * sink. It buffers MigrationMachine::kBatchRefs references, each
 * shifted by an optional address offset, and hands every chunk to
 * each machine through accessBatch() and to each bare L1 through
 * filterBatch(), whose post-L1 events go to that L1's LineSink. A
 * feed without machines also tallies the stream's instruction
 * fetches, loads and stores.
 *
 * One rule cuts a chunk, at whichever comes first:
 *  - K references;
 *  - the instruction fetch that retires the warm-up budget, after
 *    which every target's counters are zeroed (resetStats());
 *  - the owner's next event (FeedOwner::refsUntilEvent()).
 *
 * accessBatch() and filterBatch() leave counters, cache state and the
 * journal clock at their per-reference values at chunk end, so where
 * a stream is cut changes no result: the rule decides only where the
 * reset lands and where the owner looks (docs/parallelism.md, "The
 * feed").
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/l1_filter.hpp"
#include "mem/trace.hpp"
#include "multicore/machine.hpp"

namespace xmig {

class Workload;

/**
 * The party a feed reports to: the observatory's sample instants, an
 * arena tenant's turn budget, a recorder of fixed windows. The feed
 * never buffers past the owner's next event, so onChunk() sees every
 * target exactly at that reference.
 */
class FeedOwner
{
  public:
    virtual ~FeedOwner() = default;

    /** References until the owner's next event (>= 1); UINT64_MAX
     *  when it has none. Asked before every chunk. */
    virtual uint64_t refsUntilEvent() const = 0;

    /** Every target's counters were just zeroed: the chunk ended on
     *  the fetch that retired the warm-up. Precedes its onChunk(). */
    virtual void onStatsReset() {}

    /** A chunk of `n` references has reached every target. */
    virtual void onChunk(size_t n) = 0;
};

/**
 * RefSink that drives machines and bare L1s in K-reference chunks.
 * A warm-up of 0 never resets. The owner may be null. Call flush()
 * once the workload returns, or let run() do both.
 */
class ChunkFeed final : public RefSink
{
  public:
    explicit ChunkFeed(std::vector<MigrationMachine *> machines = {},
                       std::vector<L1Filter *> l1s = {},
                       uint64_t warmup_instructions = 0,
                       FeedOwner *owner = nullptr,
                       uint64_t address_offset = 0);

    void
    access(const MemRef &ref) override
    {
        MemRef &slot = buf_[count_++];
        slot = ref;
        slot.addr += offset_;
        if (count_ == cutAt_)
            flush();
    }

    /**
     * Drive the buffered references through every target. The fetch
     * that retires the warm-up, when among them, ends a chunk of its
     * own; the rest follow as the next chunk.
     */
    void flush();

    /** Run `workload` into this feed, then flush the tail. */
    void run(Workload &workload, uint64_t instructions, uint64_t seed = 42);

    /** The stream's tallies, kept by a feed that drives no machine (a
     *  machine counts its own references in stats()). */
    uint64_t instructions() const { return tally(kIfetch); }
    uint64_t loads() const { return tally(kLoad); }
    uint64_t stores() const { return tally(kStore); }
    uint64_t
    refs() const
    {
        return tally(kIfetch) + tally(kLoad) + tally(kStore);
    }

  private:
    static constexpr size_t kChunkRefs = MigrationMachine::kBatchRefs;
    static constexpr size_t kIfetch = static_cast<size_t>(RefType::Ifetch);
    static constexpr size_t kLoad = static_cast<size_t>(RefType::Load);
    static constexpr size_t kStore = static_cast<size_t>(RefType::Store);

    uint64_t tally(size_t type) const;

    /** Buffered references at which the next chunk is cut. */
    size_t chunkLimit() const;

    /** Feed buffered references [first, first + n) to every target,
     *  zero the targets' counters if `reset`, then tell the owner. */
    void drive(size_t first, size_t n, bool reset);

    std::vector<MigrationMachine *> machines_;
    std::vector<L1Filter *> l1s_;
    uint64_t warmupLeft_; ///< fetches until the reset; 0: none left
    FeedOwner *owner_;
    uint64_t offset_;
    uint64_t tally_[3] = {0, 0, 0}; ///< by RefType, over the stream
    size_t count_ = 0;
    size_t cutAt_;
    MemRef buf_[kChunkRefs];
    // filterBatch()'s outputs for the bare L1s.
    LineEvent events_[kChunkRefs];
    uint32_t evRef_[kChunkRefs];
    uint32_t evInstr_[kChunkRefs];
};

} // namespace xmig
