#include "sim/stack_profile.hpp"

#include <algorithm>

#include "cache/l1_filter.hpp"
#include "cache/lru_stack.hpp"
#include "core/kway_splitter.hpp"
#include "core/oe_store.hpp"
#include "multicore/feed.hpp"
#include "workloads/registry.hpp"

namespace xmig {

namespace {

/** The section 3.6 4-way split: the depth-2 tree. */
KWaySplitter::Config
splitterConfig()
{
    KWaySplitter::Config c;
    c.depth = 2;
    c.rootWindow = 128; // |R_X| = 128, |R_Y| = 64
    c.filterBits = 20;
    c.samplingCutoff = 31; // unlimited affinity cache, no sampling
    return c;
}

/** p1/p4 are reported at cache sizes from 16 KB to 16 MB, doubling. */
constexpr uint64_t kMinPlotBytes = 16 * 1024;
constexpr uint64_t kMaxPlotBytes = 16 * 1024 * 1024;

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
    auto workload = makeWorkload(benchmark);

    const KWaySplitter::Config split = splitterConfig();
    UnboundedOeStore store(split.affinityBits);
    KWaySplitter splitter(split, store);
    ProfileSink sink(splitter);

    L1FilterConfig l1c; // the default 16-KB IL1 and DL1 (section 4.1)
    l1c.lineBytes = params.lineBytes;
    l1c.fullyAssociative = true;
    l1c.unifiedReadWrite = true;
    L1Filter filter(l1c, sink);

    ChunkFeed feed({}, {&filter});
    feed.run(*workload, params.instructionsPerBenchmark, params.seed);

    StackProfileResult result;
    result.name = workload->info().name;
    result.suite = workload->info().suite;
    result.instructions = feed.instructions();
    result.stackAccesses = sink.accesses();
    result.transitions = splitter.transitions();
    result.transitionFrequency = sink.accesses() == 0
        ? 0.0
        : static_cast<double>(splitter.transitions()) /
          static_cast<double>(sink.accesses());
    result.footprintLines = sink.single().distinctLines();
    for (uint64_t size = kMinPlotBytes; size <= kMaxPlotBytes; size *= 2) {
        result.plotSizes.push_back(size);
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
