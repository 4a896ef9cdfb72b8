/**
 * @file
 * Initial-affinity ablation (section 3.3, "Initial affinity").
 *
 * The paper: "We ran the algorithm on a Circular behavior with
 * different initialization methods (non-null constant, random value,
 * O_e(t_e) = 0) and with different values for |R|. ... the splitting
 * for Circular was not optimal, which is not a problem as long as
 * transitions do not happen too often. ... after enough time, the
 * transition frequency never exceeded one transition every 2|R|
 * references."
 *
 * This experiment reproduces exactly that sweep and checks the
 * low-pass bound, one sweep cell per (initialization, |R|) point.
 */

#include "core/kway_splitter.hpp"
#include "core/oe_store.hpp"
#include "paper.hpp"
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"
#include "workloads/synthetic.hpp"

using namespace xmig;

namespace {

const char *
initName(OeInitPolicy policy)
{
    switch (policy) {
      case OeInitPolicy::ZeroAffinity:
        return "A_e = 0 (paper default)";
      case OeInitPolicy::ConstantAffinity:
        return "A_e = +1000 constant";
      case OeInitPolicy::RandomAffinity:
        return "A_e = random";
    }
    return "?";
}

SweepRow
runPoint(OeInitPolicy policy, size_t window)
{
    UnboundedOeStore store(16, policy);
    KWaySplitter::Config c;
    c.depth = 1;
    c.rootWindow = window;
    c.filterBits = 16; // raw affinity signs, like Figure 3
    KWaySplitter splitter(c, store);
    CircularStream s(4000);

    // "After enough time": random initialization starts from
    // a fragmented split and coalesces slowly, so the warm-up
    // is generous.
    const uint64_t kWarm = 12'000'000, kMeasure = 1'000'000;
    for (uint64_t t = 0; t < kWarm; ++t)
        splitter.onReference(s.next());
    const uint64_t t0 = splitter.transitions();
    uint64_t pos = 0;
    for (uint64_t t = 0; t < kMeasure; ++t) {
        const SplitDecision d = splitter.onReference(s.next());
        pos += d.subset == 0 ? 1 : 0;
    }
    const double freq =
        static_cast<double>(splitter.transitions() - t0) /
        static_cast<double>(kMeasure);
    const double bound = 1.0 / (2.0 * static_cast<double>(window));
    const double balance =
        static_cast<double>(std::min(pos, kMeasure - pos)) /
        static_cast<double>(
            std::max<uint64_t>(1, std::max(pos, kMeasure - pos)));
    return {"",
            {initName(policy), formatString("%zu", window),
             formatString("%.2f", balance), formatString("%.5f", freq),
             formatString("%.5f", bound),
             freq <= bound * 1.3 ? "yes" : "NO"}};
}

} // namespace

std::string
xmig::paperInit(const BenchOptions &opt)
{
    const OeInitPolicy policies[] = {OeInitPolicy::ZeroAffinity,
                                     OeInitPolicy::ConstantAffinity,
                                     OeInitPolicy::RandomAffinity};
    const size_t windows[] = {50, 100, 400, 1000};
    const SweepSpec spec{3 * 4, [&](size_t i) {
                             return RunResult{"",
                                              {runPoint(policies[i / 4],
                                                        windows[i % 4])}};
                         }};
    AsciiTable table({"initialization", "|R|", "balance",
                      "steady trans-freq", "bound 1/(2|R|)", "ok?"});
    collateRows(runSweep(spec, opt.jobs), table);

    return "Initial-affinity ablation (section 3.3): Circular "
           "N = 4000, 16-bit affinities.\nClaim: whatever the "
           "initialization, the steady-state transition "
           "frequency\nstays below 1/(2|R|).\n\n" +
           table.render();
}
