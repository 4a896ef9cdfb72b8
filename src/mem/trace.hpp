/**
 * @file
 * Reference-stream sinks: the interface every workload emits into,
 * and the small sinks that discard or record a stream. Machines and
 * L1 filters are driven through the chunked feed (multicore/feed.hpp).
 */

#pragma once

#include <vector>

#include "mem/ref.hpp"

namespace xmig {

/**
 * Consumer of a dynamic reference stream: what a workload emits into.
 * The chunked feed, the L1 filter and the sinks below implement it.
 */
class RefSink
{
  public:
    virtual ~RefSink() = default;

    /** Process one dynamic reference. */
    virtual void access(const MemRef &ref) = 0;
};

/** Sink that discards everything (useful for warm-up or plumbing). */
class NullSink : public RefSink
{
  public:
    void access(const MemRef &) override {}
};

/** Sink that stores the stream for replay in tests. */
class RefRecorder : public RefSink
{
  public:
    void access(const MemRef &ref) override { refs_.push_back(ref); }

    const std::vector<MemRef> &refs() const { return refs_; }
    void clear() { refs_.clear(); }

    /** Replay the recorded stream into another sink. */
    void
    replay(RefSink &sink) const
    {
        for (const auto &r : refs_)
            sink.access(r);
    }

  private:
    std::vector<MemRef> refs_;
};

} // namespace xmig
