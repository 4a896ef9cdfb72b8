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

/**
 * Routes each post-L1 line to stack 0, the single stack, and to stack
 * 1 + k, the stack of the split subset k it goes to.
 */
class ProfileSink : public LineSink
{
  public:
    ProfileSink(KWaySplitter &splitter, const std::vector<uint64_t> &lines)
        : splitter_(splitter),
          stacks_(5, LruStack(lines))
    {
    }

    void
    onLine(const LineEvent &event) override
    {
        stacks_[0].access(event.line);
        const SplitDecision d = splitter_.onReference(event.line);
        stacks_[1 + d.subset].access(event.line);
    }

    const LruStack &stack(unsigned i) const { return stacks_[i]; }

  private:
    KWaySplitter &splitter_;
    std::vector<LruStack> stacks_;
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
    StackProfileResult result;
    std::vector<uint64_t> lines; // the plotted sizes, in lines
    for (uint64_t size = kMinPlotBytes; size <= kMaxPlotBytes; size *= 2) {
        result.plotSizes.push_back(size);
        lines.push_back(size / params.lineBytes);
    }
    ProfileSink sink(splitter, lines);

    L1FilterConfig l1c; // the default 16-KB IL1 and DL1 (section 4.1)
    l1c.lineBytes = params.lineBytes;
    l1c.fullyAssociative = true;
    l1c.unifiedReadWrite = true;
    L1Filter filter(l1c, sink);

    ChunkFeed feed({}, {&filter});
    feed.run(*workload, params.instructionsPerBenchmark, params.seed);

    result.name = workload->info().name;
    result.suite = workload->info().suite;
    result.instructions = feed.instructions();
    result.stackAccesses = sink.stack(0).references();
    /** `count` per post-L1 reference. */
    const auto ratio = [&](uint64_t count) {
        return result.stackAccesses == 0
            ? 0.0
            : static_cast<double>(count) /
              static_cast<double>(result.stackAccesses);
    };
    result.transitions = splitter.transitions();
    result.transitionFrequency = ratio(splitter.transitions());
    result.footprintLines = sink.stack(0).distinctLines();
    for (uint64_t c : lines) {
        uint64_t split_misses = 0;
        for (unsigned k = 1; k <= 4; ++k)
            split_misses += sink.stack(k).missesAtSize(c);
        result.p1.push_back(ratio(sink.stack(0).missesAtSize(c)));
        result.p4.push_back(ratio(split_misses));
    }
    return result;
}

} // namespace xmig
