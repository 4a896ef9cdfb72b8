/**
 * @file
 * R-window size ablation (section 3.3).
 *
 * Paper claims reproduced here:
 *  - Circular(N) splits iff N > 2|R| (the negative feedback needs
 *    elements to spend more time outside R than inside);
 *  - after convergence the transition frequency on Circular stays
 *    under ~1/(2|R|) (the R-window acts as a low-pass filter);
 *  - HalfRandom(m) requires |R| not much larger than m for the
 *    positive feedback to act on synchronous groups.
 *
 * One sweep cell per (stream, |R|) case; rows carry their section
 * label.
 */

#include <memory>
#include <string>
#include <vector>

#include "paper.hpp"
#include "sim/runner/sweep.hpp"
#include "sim/snapshot.hpp"
#include "util/stats.hpp"

using namespace xmig;

namespace {

/** One sweep case: stream parameters under a section label. */
struct Case
{
    std::string section;
    const char *behavior;
    uint64_t n;
    uint64_t m; ///< HalfRandom group size; 0 for Circular
    size_t window;
};

std::unique_ptr<ElementStream>
makeStream(const Case &c)
{
    if (c.m == 0)
        return std::make_unique<CircularStream>(c.n);
    return std::make_unique<HalfRandomStream>(c.n, c.m);
}

SweepRow
report(const Case &c, uint64_t refs)
{
    SnapshotParams params;
    params.numElements = c.n;
    params.references = refs;
    params.engine.windowSize = c.window;
    const SnapshotResult r = runAffinitySnapshot(*makeStream(c), params);

    // A genuine split is balanced, has few transitions, AND is
    // stable: extend the run by half a pass and check that element
    // signs persist (the degenerate below-threshold "split" just
    // tracks the moving R-window).
    params.references = refs + c.n / 2;
    const SnapshotResult r2 = runAffinitySnapshot(*makeStream(c), params);
    uint64_t pos = 0, stable_pos = 0;
    for (uint64_t e = 0; e < c.n; ++e) {
        if (r.affinity[e] >= 0) {
            ++pos;
            stable_pos += r2.affinity[e] >= 0 ? 1 : 0;
        }
    }
    const double stability = pos == 0
        ? 0.0
        : static_cast<double>(stable_pos) / static_cast<double>(pos);

    const double balance =
        static_cast<double>(
            std::min(r.positive, r.negative)) /
        static_cast<double>(std::max<uint64_t>(
            1, std::max(r.positive, r.negative)));
    const bool split = balance > 0.6 && r.transitionFrequency < 0.1 &&
                       stability > 0.8;

    const unsigned long long n = c.n, m = c.m;
    return {c.section,
            {m != 0 ? formatString("%s(N=%llu,m=%llu)", c.behavior, n, m)
                    : formatString("%s(N=%llu)", c.behavior, n),
             formatString("%zu", c.window), formatString("%.2f", balance),
             formatString("%.5f", r.transitionFrequency),
             formatString("%.5f",
                          1.0 / (2.0 * static_cast<double>(c.window))),
             split ? "yes" : "no"}};
}

} // namespace

std::string
xmig::paperRWindow(const BenchOptions &opt)
{
    const uint64_t kRefs = 1'500'000;

    std::vector<Case> cases;
    const std::string sec1 =
        "Circular, N = 4000: threshold at |R| = 2000";
    for (size_t w : {50, 100, 500, 1000, 1900, 2000, 2500, 3900})
        cases.push_back({sec1, "Circular", 4000, 0, w});
    const std::string sec2 = "Circular, N fixed to 2|R| +/- epsilon";
    for (uint64_t n : {260, 256, 250})
        cases.push_back({sec2, "Circular", n, 0, 128});
    const std::string sec3 =
        "HalfRandom(m=300), N = 4000: |R| <~ m required";
    for (size_t w : {50, 100, 300, 600, 1200})
        cases.push_back({sec3, "HalfRandom", 4000, 300, w});

    const SweepSpec spec{cases.size(), [&](size_t i) {
                             return RunResult{"", {report(cases[i], kRefs)}};
                         }};
    AsciiTable table({"stream", "|R|", "balance", "trans-freq",
                      "1/(2|R|)", "split?"});
    collateRows(runSweep(spec, opt.jobs), table);

    return "R-window ablation (section 3.3): Circular splits iff "
           "N > 2|R|;\nHalfRandom(m) needs |R| <~ m.\n\n" +
           table.render();
}
