/**
 * @file
 * xmig-iron fault injector: the runtime that executes a FaultPlan.
 *
 * One injector is owned by the component that drives simulated time
 * (the MigrationMachine in full-system runs, the test harness in
 * standalone-controller runs) and shared, as a non-owning pointer,
 * with every component that exposes a fault hook: affinity engines
 * (soft errors in A_e / Delta / A_R), the migration controller (O_e
 * store corruption, migration drop/delay) and the machine itself
 * (core churn, update-bus loss).
 *
 * Determinism: all randomness comes from the injector's own RNG,
 * seeded from the plan. Hook sites draw in simulation order, so a
 * given (workload seed, plan spec) pair replays bit-identically. A
 * null injector pointer (no plan armed) costs one predictable branch
 * per hook, and an unarmed run is bit-identical to one on a machine
 * with no hooks at all.
 *
 * Scheduled rules latch into per-site "due" flags at tick(); the next
 * draw() for that site consumes the flag. Core events are drained by
 * the owner via drainCoreEvents().
 *
 * Thread contract: single-thread confined, like the machine that
 * owns it — one injector per sweep cell, never shared across pool
 * workers. Determinism *depends* on that confinement (hook sites
 * draw from one RNG in simulation order), so the class carries no
 * locks or capability annotations by design; any future mutex
 * member here must be annotated or the `naked-mutex` lint rule
 * fails the build (docs/analysis.md, "Static analysis:
 * xmig-sentinel").
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "util/rng.hpp"

namespace xmig::obs {
class Journal;
class MetricsRegistry;
} // namespace xmig::obs

namespace xmig {

/** Per-site injection counts. */
struct FaultStats
{
    uint64_t injected[static_cast<size_t>(FaultSite::kCount)] = {};
    uint64_t ticks = 0;

    uint64_t
    of(FaultSite site) const
    {
        return injected[static_cast<size_t>(site)];
    }

    uint64_t total() const;
};

/** One core hot-(un)plug event drained by the machine. */
struct CoreFaultEvent
{
    unsigned core = 0;
    bool online = false; ///< false = offline (unplug)
};

/**
 * Executes a FaultPlan against the live simulation.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan);

    /**
     * Advance simulated time by one reference. Scheduled rules whose
     * tick has arrived are latched as due; probabilistic core-churn
     * rules are drawn once per tick.
     */
    void tick();

    /** Ticks elapsed. */
    uint64_t now() const { return stats_.ticks; }

    /** True if any rule targets `site` (precomputed; hot-path guard). */
    bool
    armedFor(FaultSite site) const
    {
        return armed_[static_cast<size_t>(site)];
    }

    /** True if the plan contains core_off / core_on rules. */
    bool armedForCoreEvents() const { return coreRules_; }

    /** True if any core events latched since the last drain. */
    bool coreEventsPending() const { return !coreEvents_.empty(); }

    /** Move the pending core events (in firing order) into `out`. */
    void drainCoreEvents(std::vector<CoreFaultEvent> &out);

    /**
     * Decide whether a fault fires at this opportunity for `site`:
     * consumes a latched scheduled event if one is due, otherwise
     * draws every rate rule targeting the site. Counts on success.
     * For MigDelay, the delay is retrieved with migrationDelay().
     */
    bool draw(FaultSite site);

    /** Request delay of the MigDelay rule that last fired. */
    uint64_t migrationDelay() const { return lastDelay_; }

    /**
     * Flip one uniformly chosen bit of `value` interpreted as a
     * `bits`-wide two's-complement integer; the result is
     * sign-extended back to int64_t.
     */
    int64_t flipBit(int64_t value, unsigned bits);

    /** The plan's RNG (store-corruption victim selection). */
    Rng &rng() { return rng_; }

    const FaultStats &stats() const { return stats_; }
    const FaultPlan &plan() const { return plan_; }

    /**
     * Register injection counters under `prefix` (xmig-scope):
     * `<prefix>.ticks` and `<prefix>.injected.<site>` per site.
     */
    void registerMetrics(obs::MetricsRegistry &registry,
                         const std::string &prefix) const;

    /**
     * Attach the xmig-lens journal (non-owning; may be null). Every
     * successful injection records a FaultInject event carrying the
     * site and the tick at which it fired.
     */
    void attachJournal(obs::Journal *journal) { journal_ = journal; }

  private:
    void count(FaultSite site);

    FaultPlan plan_;
    Rng rng_;
    FaultStats stats_;
    obs::Journal *journal_ = nullptr; ///< xmig-lens hook (may be null)
    bool armed_[static_cast<size_t>(FaultSite::kCount)] = {};
    bool due_[static_cast<size_t>(FaultSite::kCount)] = {};
    bool coreRules_ = false;
    size_t nextScheduled_ = 0; ///< cursor into plan_.scheduled
    uint64_t lastDelay_ = 0;
    std::vector<CoreFaultEvent> coreEvents_;
};

} // namespace xmig
