/**
 * @file
 * Reproduces Figure 3: affinity A_e for each element of a 4000-element
 * working-set under Circular and HalfRandom(300) behavior, |R| = 100,
 * after 20k, 100k and 1000k references.
 *
 * Output per (behavior, t): a bucketed profile of A_e over element id
 * (the shape of the paper's scatter plots), subset balance, the
 * number of same-sign segments (2 = the optimal contiguous split for
 * Circular), and the transition frequency printed on each graph.
 *
 * One sweep cell per (behavior, t) case.
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

std::string
runCase(const char *behavior, uint64_t refs)
{
    constexpr uint64_t kN = 4000;
    std::unique_ptr<ElementStream> stream;
    if (std::string(behavior) == "Circular")
        stream = std::make_unique<CircularStream>(kN);
    else
        stream = std::make_unique<HalfRandomStream>(kN, 300);

    SnapshotParams params;
    params.numElements = kN;
    params.references = refs;
    const SnapshotResult r = runAffinitySnapshot(*stream, params);

    std::string out = formatString(
        "\n== Figure 3: %s, t = %lluk references ==\n"
        "positive/negative elements: %llu / %llu\n"
        "same-sign segments over element space: %llu\n"
        "trans: %.4f\n",
        behavior, (unsigned long long)(refs / 1000),
        (unsigned long long)r.positive, (unsigned long long)r.negative,
        (unsigned long long)r.signSegments, r.transitionFrequency);

    // Bucketed affinity profile (the shape of the scatter plot).
    constexpr unsigned kBuckets = 40;
    SeriesWriter series("element_bucket", {"mean_affinity"});
    const uint64_t per = kN / kBuckets;
    for (unsigned b = 0; b < kBuckets; ++b) {
        double sum = 0;
        for (uint64_t e = b * per; e < (b + 1) * per; ++e)
            sum += static_cast<double>(r.affinity[e]);
        series.addPoint(formatString("%llu", (unsigned long long)(b * per)),
                        {sum / static_cast<double>(per)});
    }
    out += series.render();
    return out;
}

} // namespace

std::string
xmig::paperFigure3(const BenchOptions &opt)
{
    struct Case
    {
        const char *behavior;
        uint64_t refs;
    };
    std::vector<Case> cases;
    for (uint64_t refs : {20'000ULL, 100'000ULL, 1'000'000ULL}) {
        cases.push_back({"Circular", refs});
        cases.push_back({"HalfRandom", refs});
    }

    const SweepSpec spec{cases.size(), [&](size_t i) {
                             return RunResult{runCase(cases[i].behavior,
                                                      cases[i].refs),
                                              {}};
                         }};
    return "Figure 3 reproduction: affinity snapshots "
           "(N = 4000, |R| = 100, 16-bit affinities)\n"
           "Paper: after enough references both behaviors split "
           "into two equal-size subsets;\n"
           "Circular reaches ~1 transition per 2000 refs, "
           "HalfRandom(300) ~1 per 300 refs.\n" +
           collateText(runSweep(spec, opt.jobs));
}
