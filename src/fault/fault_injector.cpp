#include "fault/fault_injector.hpp"

#include "obs/journal.hpp"
#include "obs/registry.hpp"
#include "util/contracts.hpp"

namespace xmig {

uint64_t
FaultStats::total() const
{
    uint64_t sum = 0;
    for (uint64_t n : injected)
        sum += n;
    return sum;
}

FaultInjector::FaultInjector(const FaultPlan &plan)
    : plan_(plan), rng_(plan.seed)
{
    for (size_t i = 0; i < static_cast<size_t>(FaultSite::kCount); ++i)
        armed_[i] = plan_.targets(static_cast<FaultSite>(i));
    coreRules_ = armedFor(FaultSite::CoreOff) ||
                 armedFor(FaultSite::CoreOn);
    // Scheduled MigDelay rules carry the delay on the rule; remember it
    // so a scheduled delay reports the right stretch when consumed.
    for (const FaultRule &r : plan_.rates) {
        if (r.site == FaultSite::MigDelay)
            lastDelay_ = r.delay;
    }
}

void
FaultInjector::tick()
{
    const uint64_t now = stats_.ticks++;

    // Latch scheduled rules whose time has come. The vector is sorted
    // by `at`, so a cursor suffices.
    while (nextScheduled_ < plan_.scheduled.size() &&
           plan_.scheduled[nextScheduled_].at <= now) {
        const FaultRule &rule = plan_.scheduled[nextScheduled_++];
        if (rule.site == FaultSite::CoreOff ||
            rule.site == FaultSite::CoreOn) {
            coreEvents_.push_back(
                {rule.core, rule.site == FaultSite::CoreOn});
            count(rule.site);
        } else {
            if (rule.site == FaultSite::MigDelay)
                lastDelay_ = rule.delay;
            due_[static_cast<size_t>(rule.site)] = true;
        }
    }

    // Core churn has no natural hook site in the simulated hardware,
    // so probabilistic core rules get their opportunity once per tick.
    if (coreRules_) {
        for (const FaultRule &r : plan_.rates) {
            if ((r.site == FaultSite::CoreOff ||
                 r.site == FaultSite::CoreOn) &&
                rng_.chance(r.rate)) {
                coreEvents_.push_back(
                    {r.core, r.site == FaultSite::CoreOn});
                count(r.site);
            }
        }
    }
}

void
FaultInjector::drainCoreEvents(std::vector<CoreFaultEvent> &out)
{
    out.insert(out.end(), coreEvents_.begin(), coreEvents_.end());
    coreEvents_.clear();
}

bool
FaultInjector::draw(FaultSite site)
{
    XMIG_ASSERT(site != FaultSite::CoreOff && site != FaultSite::CoreOn,
                "core events are drained, not drawn");
    const size_t idx = static_cast<size_t>(site);
    if (due_[idx]) {
        due_[idx] = false;
        count(site);
        return true;
    }
    for (const FaultRule &r : plan_.rates) {
        if (r.site == site && rng_.chance(r.rate)) {
            if (site == FaultSite::MigDelay)
                lastDelay_ = r.delay;
            count(site);
            return true;
        }
    }
    return false;
}

int64_t
FaultInjector::flipBit(int64_t value, unsigned bits)
{
    XMIG_ASSERT(bits >= 1 && bits <= 63,
                "flipBit width out of range: %u", bits);
    const uint64_t mask = (uint64_t{1} << bits) - 1;
    uint64_t raw = static_cast<uint64_t>(value) & mask;
    raw ^= uint64_t{1} << rng_.below(bits);
    // Sign-extend the `bits`-wide two's-complement result.
    const uint64_t sign = uint64_t{1} << (bits - 1);
    return static_cast<int64_t>((raw ^ sign)) - static_cast<int64_t>(sign);
}

void
FaultInjector::count(FaultSite site)
{
    ++stats_.injected[static_cast<size_t>(site)];
    // count() is the single funnel every successful injection passes
    // through (scheduled latches, rate draws and core churn alike),
    // so it is the one causal emission point for the lens.
    XMIG_JOURNAL(journal_, obs::JournalKind::FaultInject,
                 obs::JournalCause::PlanEvent,
                 static_cast<int64_t>(site),
                 static_cast<int64_t>(stats_.ticks));
}

void
FaultInjector::registerMetrics(obs::MetricsRegistry &registry,
                               const std::string &prefix) const
{
    registry.addCounter(prefix + ".ticks", stats_.ticks);
    for (size_t i = 0; i < static_cast<size_t>(FaultSite::kCount); ++i) {
        registry.addCounter(prefix + ".injected." +
                                faultSiteName(static_cast<FaultSite>(i)),
                            stats_.injected[i]);
    }
}

} // namespace xmig
