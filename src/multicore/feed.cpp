#include "multicore/feed.hpp"

#include <utility>

#include "util/contracts.hpp"
#include "workloads/workload.hpp"

namespace xmig {

ChunkFeed::ChunkFeed(std::vector<MigrationMachine *> machines,
                     std::vector<L1Filter *> l1s,
                     uint64_t warmup_instructions, FeedOwner *owner,
                     uint64_t address_offset)
    : machines_(std::move(machines)),
      l1s_(std::move(l1s)),
      warmupLeft_(warmup_instructions),
      owner_(owner),
      offset_(address_offset)
{
    cutAt_ = chunkLimit();
}

void
ChunkFeed::flush()
{
    const size_t n = count_;
    XMIG_AUDIT(n <= cutAt_, "chunk of %zu refs ran past its cut at %zu", n,
               cutAt_);
    count_ = 0;
    // Machines count their own references, so only a feed without
    // machines tallies the stream: scanning every chunk slowed the
    // arena's ns/ref by about 5 % on a 4-core x86 host. Fetches are
    // also counted while a warm-up is pending.
    uint64_t fetches = 0, stores = 0;
    if (machines_.empty() || warmupLeft_ != 0) {
        for (size_t i = 0; i < n; ++i) {
            fetches += buf_[i].isIfetch() ? 1 : 0;
            stores += buf_[i].isStore() ? 1 : 0;
        }
    }
    if (machines_.empty()) {
        tally_[kIfetch] += fetches;
        tally_[kStore] += stores;
        tally_[kLoad] += n - fetches - stores;
    }

    // The fetch that retires the warm-up ends a chunk: every target's
    // counters restart right after it.
    size_t warm = 0;
    if (warmupLeft_ > fetches) {
        warmupLeft_ -= fetches;
    } else if (warmupLeft_ != 0) {
        while (warmupLeft_ != 0)
            warmupLeft_ -= buf_[warm++].isIfetch() ? 1 : 0;
        drive(0, warm, /*reset=*/true);
    }
    if (warm < n)
        drive(warm, n - warm, /*reset=*/false);
    cutAt_ = chunkLimit();
}

void
ChunkFeed::drive(size_t first, size_t n, bool reset)
{
    XMIG_AUDIT(n > 0 && first + n <= kChunkRefs,
               "drive of references [%zu, %zu) outside the chunk", first,
               first + n);
    const MemRef *refs = buf_ + first;
    for (MigrationMachine *machine : machines_)
        machine->accessBatch(refs, n);
    for (L1Filter *l1 : l1s_) {
        uint32_t ifetches = 0;
        const size_t m =
            l1->filterBatch(refs, n, events_, evRef_, evInstr_, &ifetches);
        for (size_t e = 0; e < m; ++e)
            l1->sink().onLine(events_[e]);
    }
    if (reset) {
        for (MigrationMachine *machine : machines_)
            machine->resetStats();
        for (L1Filter *l1 : l1s_)
            l1->resetStats();
        if (owner_)
            owner_->onStatsReset();
    }
    // The owner may suspend here (an arena turn ends) and return with
    // a new next event, so flush() re-reads the cut afterwards.
    if (owner_)
        owner_->onChunk(n);
}

void
ChunkFeed::run(Workload &workload, uint64_t instructions, uint64_t seed)
{
    workload.run(*this, instructions, seed);
    flush();
}

uint64_t
ChunkFeed::tally(size_t type) const
{
    XMIG_ASSERT(machines_.empty(),
                "a feed that drives machines keeps no tallies; read the "
                "machines' stats()");
    return tally_[type];
}

size_t
ChunkFeed::chunkLimit() const
{
    const uint64_t until = owner_ ? owner_->refsUntilEvent() : UINT64_MAX;
    XMIG_ASSERT(until >= 1, "feed owner's next event is already due");
    return until < kChunkRefs ? static_cast<size_t>(until) : kChunkRefs;
}

} // namespace xmig
