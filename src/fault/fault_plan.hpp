/**
 * @file
 * xmig-iron fault plans: deterministic, replayable fault schedules.
 *
 * A FaultPlan is parsed from a compact spec string (the `--fault-plan`
 * CLI flag) and names *what* goes wrong and *when*. Two trigger
 * flavors exist:
 *
 *  - scheduled (`at=N:<event>`): the event fires exactly once, at
 *    injector tick N (ticks advance once per machine memory
 *    reference, or per explicit FaultInjector::tick() call in
 *    standalone-controller runs);
 *  - probabilistic (`rate=P:<event>`): at every *opportunity* for the
 *    event (a reference for soft errors, a migration issue for
 *    migration faults, a store broadcast for bus faults, a tick for
 *    core churn) the event fires with probability P, drawn from the
 *    plan's own seeded RNG so a plan string + seed replays exactly.
 *
 * Grammar (whitespace-free; statements separated by ';'):
 *
 *   plan  := stmt (';' stmt)*
 *   stmt  := 'seed=' UINT | 'at=' UINT ':' event | 'rate=' REAL ':' event
 *   event := 'core_off=' CORE | 'core_on=' CORE
 *          | 'flip=' site              site := ae|delta|ar|oe|tag
 *          | 'mig_drop' | 'mig_delay=' UINT
 *          | 'bus_drop'
 *
 * Example:
 *   seed=7;at=500000:core_off=2;at=900000:core_on=2;
 *   rate=1e-5:flip=oe;rate=1e-6:mig_drop;rate=1e-6:bus_drop
 *
 * See docs/robustness.md for the full event semantics.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xmig {

/** Which value or mechanism a fault event targets. */
enum class FaultSite : uint8_t
{
    Ae,       ///< soft error in the A_e fed to a transition filter
    Delta,    ///< soft error in an engine's Delta register
    Ar,       ///< soft error in an engine's A_R register
    OeEntry,  ///< soft error in a stored O_e value
    CacheTag, ///< affinity-cache tag corrupted (entry becomes lost)
    MigDrop,  ///< a migration request vanishes in the fabric
    MigDelay, ///< a migration request is delayed by `delay` requests
    BusDrop,  ///< one update-bus store broadcast is lost
    CoreOff,  ///< a core (its L2 contents included) drops out
    CoreOn,   ///< a previously offline core rejoins, cold
    kCount,
};

/** Short lowercase name of a fault site (for metrics and traces). */
const char *faultSiteName(FaultSite site);

/** One parsed fault rule. */
struct FaultRule
{
    FaultSite site = FaultSite::Ae;
    uint64_t at = 0;     ///< scheduled tick (scheduled rules only)
    double rate = 0.0;   ///< per-opportunity probability (rate rules)
    bool scheduled = false; ///< at-rule (true) vs rate-rule (false)
    unsigned core = 0;   ///< CoreOff / CoreOn target
    uint64_t delay = 0;  ///< MigDelay request count

    bool operator==(const FaultRule &) const = default;
};

/**
 * Shortest decimal form of `v` that strtod parses back to exactly
 * `v`: rates round-trip through plan text without drifting and
 * without dragging 17 digits into every repro.
 */
std::string formatRate(double v);

/**
 * Statement form of one rule, re-parseable by FaultPlan::parse:
 * "at=500000:core_off=2", "rate=1e-05:flip=oe", ... Rates print with
 * the fewest significant digits that strtod round-trips exactly.
 */
std::string faultRuleToString(const FaultRule &rule);

/**
 * A parsed, validated fault schedule. Inert when empty().
 */
struct FaultPlan
{
    uint64_t seed = 1;
    std::vector<FaultRule> scheduled; ///< sorted by `at`
    std::vector<FaultRule> rates;

    bool empty() const { return scheduled.empty() && rates.empty(); }

    bool operator==(const FaultPlan &) const = default;

    /** True if any rule (either flavor) targets `site`. */
    bool targets(FaultSite site) const;

    /**
     * Normalized spec string: "seed=S" first, then the scheduled
     * rules in tick order, then the rate rules in parse order. The
     * result re-parses to an identical plan (round-trip property,
     * tests/test_fault_plan.cpp); xmig-forge relies on it to print
     * minimized repros.
     */
    std::string toString() const;

    /**
     * Parse `spec` into `plan`. Returns false (and a human-readable
     * message in `error` if non-null) on malformed specs; `plan` is
     * untouched on failure. The empty string parses to an inert plan;
     * empty *statements* (stray or trailing ';') are errors.
     */
    static bool parse(const std::string &spec, FaultPlan *plan,
                      std::string *error = nullptr);

    /** Parse or die with a clean user-facing error (CLI path). */
    static FaultPlan parseOrFatal(const std::string &spec);
};

} // namespace xmig
