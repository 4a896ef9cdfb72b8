/**
 * @file
 * xmig-forge plan generation: seeded sampling of random-but-valid
 * FaultPlan spec strings over the full fault_plan.hpp grammar.
 *
 * Instead of hand-picking adversarial fault schedules, the fuzzer
 * searches the plan space: every one of the ten fault sites, both
 * trigger flavors (scheduled `at=` and probabilistic `rate=`),
 * core-churn pairs, and deliberately nasty boundary shapes — events
 * at tick 0, back-to-back `core_off`/`core_on`, rates at exactly 0
 * and 1, duplicated statements, bogus core ids the machine must
 * shrug off. Every sampled plan is valid by construction (the
 * generator tests parse each one), and a generator seed replays the
 * exact same plan sequence, so a whole campaign is reproducible from
 * one campaign seed (see fuzz/campaign.hpp).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "util/rng.hpp"

namespace xmig {

/** Shape of the plans a PlanGenerator samples. */
struct GeneratorConfig
{
    /** Statement budget per plan (the seed= statement is extra). */
    unsigned maxStatements = 12;
};

/** One sampled plan: its statements, joinable into a spec string. */
struct FuzzPlan
{
    std::vector<std::string> statements;

    /** The statements joined with ';' (FaultPlan::parse input). */
    std::string spec() const;
};

/**
 * Seeded sampler of valid FaultPlan specs. Same (seed, config) =>
 * same plan sequence, bit for bit.
 */
class PlanGenerator
{
  public:
    /**
     * Cap on probabilistic core-churn rates. Rate churn draws once
     * per tick, so a rate near 1 would flip topology every reference
     * and drown stderr in ignored-event warnings; the churn boundary
     * is explored through scheduled back-to-back pairs instead.
     */
    static constexpr double kMaxChurnRate = 1e-4;

    /**
     * Scheduled `at=` ticks land in [0, kTickHorizon]; boundary picks
     * include 0, 1, the horizon itself and just past it (an event
     * that never fires).
     */
    static constexpr uint64_t kTickHorizon = 400'000;

    explicit PlanGenerator(uint64_t seed, GeneratorConfig config = {});

    /** Sample the next plan. */
    FuzzPlan next();

    /**
     * Sample one statement targeting `site` (xmig-storm guidance:
     * the coverage-guided generator composes plans site by site
     * instead of taking the uniform site mix of next()). `tick_io`
     * carries the running tick so scheduled statements of one plan
     * stay loosely ordered. With `hot` set, values are drawn from
     * the ranges that actually fire within a fuzz case's horizon —
     * rates in [1e-3, 1e-1] and ticks in the first half of the
     * horizon — instead of the boundary-biased full ranges.
     */
    std::string statementFor(FaultSite site, uint64_t &tick_io,
                             bool hot = false);

    /**
     * Append a core-churn statement (usually an off/on pair; see
     * next()'s churn shapes) — public so the guided generator can
     * reuse the tested rejoin boundary shapes.
     */
    void appendChurn(std::vector<std::string> &out, uint64_t &tick_io);

    const GeneratorConfig &config() const { return config_; }

  private:
    uint64_t sampleTick(uint64_t previous_tick);
    double sampleRate();
    double sampleHotRate();
    std::string sampleFlipOrFabric(bool &scheduled_out,
                                   uint64_t &tick_io);

    GeneratorConfig config_;
    Rng rng_;
};

} // namespace xmig
