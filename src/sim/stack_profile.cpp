#include "sim/stack_profile.hpp"

#include <algorithm>

#include "cache/l1_filter.hpp"
#include "cache/lru_stack.hpp"
#include "core/oe_store.hpp"
#include "util/contracts.hpp"
#include "workloads/registry.hpp"

namespace xmig {

namespace {

/** Routes each post-L1 line to the single stack and the split stacks. */
class ProfileSink : public LineSink
{
  public:
    ProfileSink(KWaySplitter &splitter)
        : splitter_(splitter)
    {
    }

    void
    onLine(const LineEvent &event) override
    {
        ++accesses_;
        single_.access(event.line);
        const SplitDecision d = splitter_.onReference(event.line);
        split_[d.subset].access(event.line);
    }

    uint64_t accesses() const { return accesses_; }
    const LruStack &single() const { return single_; }
    const LruStack &split(unsigned k) const { return split_[k]; }

  private:
    KWaySplitter &splitter_;
    LruStack single_;
    LruStack split_[4];
    uint64_t accesses_ = 0;
};

} // namespace

double
StackProfileResult::maxGap() const
{
    double gap = 0.0;
    for (size_t i = 0; i < p1.size(); ++i)
        gap = std::max(gap, p1[i] - p4[i]);
    return gap;
}

StackProfileResult
runStackProfile(const std::string &benchmark,
                const StackProfileParams &params)
{
    XMIG_ASSERT(params.splitter.depth == 2,
                "Figures 4/5 profile 4 split stacks, not a depth-%u tree",
                params.splitter.depth);
    auto workload = makeWorkload(benchmark);

    UnboundedOeStore store(params.splitter.affinityBits);
    KWaySplitter splitter(params.splitter, store);
    ProfileSink sink(splitter);

    L1FilterConfig l1c;
    l1c.il1Bytes = params.l1Bytes;
    l1c.dl1Bytes = params.l1Bytes;
    l1c.lineBytes = params.lineBytes;
    l1c.fullyAssociative = true;
    l1c.unifiedReadWrite = true;
    L1Filter filter(l1c, sink);

    RefCounter counter;
    TeeSink tee(counter, filter);
    workload->run(tee, params.instructionsPerBenchmark, params.seed);

    StackProfileResult result;
    result.name = workload->info().name;
    result.suite = workload->info().suite;
    result.instructions = counter.instructions();
    result.stackAccesses = sink.accesses();
    result.transitions = splitter.transitions();
    result.transitionFrequency = sink.accesses() == 0
        ? 0.0
        : static_cast<double>(splitter.transitions()) /
          static_cast<double>(sink.accesses());
    result.footprintLines = sink.single().distinctLines();
    result.plotSizes = params.plotSizes;

    for (uint64_t size : params.plotSizes) {
        const uint64_t lines = size / params.lineBytes;
        result.p1.push_back(sink.single().missRatioAtSize(lines));
        uint64_t split_misses = 0;
        for (unsigned k = 0; k < 4; ++k)
            split_misses += sink.split(k).missesAtSize(lines);
        result.p4.push_back(
            sink.accesses() == 0
                ? 0.0
                : static_cast<double>(split_misses) /
                  static_cast<double>(sink.accesses()));
    }
    return result;
}

} // namespace xmig
