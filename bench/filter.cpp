/**
 * @file
 * Transition-filter ablation (section 3.4).
 *
 * On an unsplittable (uniform random) working-set the affinities
 * saturate to +/-2^15 with equal probability, so with b filter bits
 * the filter performs a +/-2^15 random walk over a 2^b range: the
 * sign-flip frequency halves per extra bit, approximately
 * 1/2^(1+b-16). On a splittable (Circular) set, extra bits only add
 * detection delay at subset boundaries. This experiment measures both
 * sides of the trade, one sweep cell per (regime, filter-bits) pair.
 */

#include <string>
#include <vector>

#include "core/kway_splitter.hpp"
#include "core/oe_store.hpp"
#include "paper.hpp"
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"
#include "workloads/synthetic.hpp"

using namespace xmig;

namespace {

/** The paper's predicted transition frequency, 1/2^(1+b-16). */
std::string
predicted(unsigned filter_bits)
{
    return formatString("%.5f", 1.0 / static_cast<double>(
                                          1ULL << (1 + filter_bits - 16)));
}

/**
 * Transitions of a one-level splitter (|R| = 100, 16-bit affinities)
 * over `measure` references of `stream`, after `warm` unmeasured ones.
 */
template <typename Stream>
uint64_t
splitterTransitions(Stream stream, unsigned filter_bits, uint64_t warm,
                    uint64_t measure)
{
    UnboundedOeStore store(16);
    KWaySplitter::Config c;
    c.depth = 1;
    c.rootWindow = 100;
    c.filterBits = filter_bits;
    KWaySplitter splitter(c, store);
    for (uint64_t t = 0; t < warm; ++t)
        splitter.onReference(stream.next());
    const uint64_t t0 = splitter.transitions();
    for (uint64_t t = 0; t < measure; ++t)
        splitter.onReference(stream.next());
    return splitter.transitions() - t0;
}

SweepRow
randomCase(unsigned filter_bits)
{
    const uint64_t kMeasure = 1'000'000;
    const uint64_t trans = splitterTransitions(
        UniformRandomStream(4000), filter_bits, 400'000, kMeasure);
    return {"",
            {formatString("%u", filter_bits), frequency(trans, kMeasure),
             predicted(filter_bits)}};
}

SweepRow
circularCase(unsigned filter_bits)
{
    // Measure transitions per cycle and total migration opportunity
    // on a splittable stream: extra bits must not stop transitions.
    const uint64_t kMeasure = 400'000; // 100 cycles
    const uint64_t trans = splitterTransitions(
        CircularStream(4000), filter_bits, 1'000'000, kMeasure);
    return {"",
            {formatString("%u", filter_bits), frequency(trans, kMeasure),
             formatString("%.2f", static_cast<double>(trans) /
                                      (kMeasure / 4000.0))}};
}

SweepRow
saturatedCase(unsigned filter_bits)
{
    // The regime the paper's 1/2^(1+b-16) formula describes: the
    // affinity "appears saturated positive or negative with
    // probability 1/2" — a full-magnitude random walk on the filter.
    TransitionFilter filter(filter_bits);
    Rng rng(filter_bits * 17);
    const uint64_t kSteps = 1'000'000;
    for (uint64_t t = 0; t < kSteps; ++t)
        filter.update(rng.chance(0.5) ? 32767 : -32768);
    return {"",
            {formatString("%u", filter_bits),
             frequency(filter.transitions(), kSteps),
             predicted(filter_bits)}};
}

} // namespace

std::string
xmig::paperFilter(const BenchOptions &opt)
{
    constexpr unsigned kMinBits = 16, kMaxBits = 22;
    constexpr size_t kPerRegime = kMaxBits - kMinBits + 1;

    // Cells 0..6 saturated, 7..13 random, 14..20 circular.
    const SweepSpec spec{3 * kPerRegime, [&](size_t i) {
        const unsigned bits =
            kMinBits + static_cast<unsigned>(i % kPerRegime);
        return RunResult{"", {i < kPerRegime ? saturatedCase(bits)
                              : i < 2 * kPerRegime ? randomCase(bits)
                                                   : circularCase(bits)}};
    }};
    const std::vector<RunResult> results = runSweep(spec, opt.jobs);
    const auto render = [&](size_t regime,
                            std::vector<std::string> header,
                            const std::string &title) {
        AsciiTable table(std::move(header));
        collateRows({results.begin() +
                         static_cast<long>(regime * kPerRegime),
                     results.begin() +
                         static_cast<long>((regime + 1) * kPerRegime)},
                    table);
        return table.render(title);
    };

    return "Transition-filter ablation (section 3.4), "
           "16-bit affinities, |R| = 100\n\n" +
           render(0,
                  {"filter-bits", "trans-freq(saturated)",
                   "predicted 1/2^(1+b-16)"},
                  "Saturated +/-2^15 random inputs (the formula's "
                  "regime): measured vs predicted") +
           "\n" +
           render(1,
                  {"filter-bits", "trans-freq(random)",
                   "predicted 1/2^(1+b-16)"},
                  "Engine-driven uniform-random stream: affinities are "
                  "not always saturated, so frequencies sit below the "
                  "bound but still halve per bit") +
           "\n" +
           render(2,
                  {"filter-bits", "trans-freq(circular)",
                   "transitions/cycle"},
                  "Splittable (Circular N=4000) stream: transitions "
                  "survive (2/cycle ideal), only delayed");
}
