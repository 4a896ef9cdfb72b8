#include "fault/watchdog.hpp"

#include "obs/journal.hpp"
#include "obs/registry.hpp"

namespace xmig {

static_assert(Watchdog::kPingPongWindow > 0 &&
                  Watchdog::kCooldownBase > 0,
              "watchdog windows must be positive");
static_assert(Watchdog::kCooldownCap >= Watchdog::kCooldownBase,
              "watchdog cooldown cap below base");

Watchdog::Watchdog(const WatchdogConfig &config) : config_(config)
{
    cooldown_ = kCooldownBase;
    stats_.cooldownNow = cooldown_;
}

void
Watchdog::onRequest(uint64_t now, bool rootSaturated)
{
    if (!config_.enabled)
        return;

    if (rootSaturated) {
        if (++saturatedRun_ >= kStuckWindow) {
            // Degenerate all-one-sign split: every sampled transition
            // lands on one side. Request a re-init and restart the run
            // so a persistent pathology fires again after a while.
            reinitPending_ = true;
            ++stats_.reinits;
            saturatedRun_ = 0;
        }
    } else {
        saturatedRun_ = 0;
    }

    // Hysteresis decay: a long clean stretch shrinks the cooldown
    // back to base so an isolated ancient trip stops hurting.
    if (cooldown_ > kCooldownBase && now >= cooldownUntil_ &&
        now - lastTrip_ >= kDecayAfter) {
        cooldown_ = kCooldownBase;
        stats_.cooldownNow = cooldown_;
    }
}

bool
Watchdog::migrationAllowed(uint64_t now)
{
    if (!config_.enabled)
        return true;
    if (now < cooldownUntil_) {
        ++stats_.suppressed;
        return false;
    }
    return true;
}

void
Watchdog::onMigration(uint64_t now)
{
    if (!config_.enabled)
        return;
    if (now - windowStart_ >= kPingPongWindow) {
        windowStart_ = now;
        windowMigrations_ = 0;
    }
    if (++windowMigrations_ > kPingPongLimit) {
        // Livelock: back off, doubling the cooldown on repeat trips.
        ++stats_.livelocks;
        XMIG_JOURNAL(journal_, obs::JournalKind::WatchdogTrip,
                     obs::JournalCause::Livelock,
                     static_cast<int64_t>(windowMigrations_),
                     static_cast<int64_t>(cooldown_));
        // Watchdog fire = incident: preserve the causal history that
        // led into the livelock even if the run never finishes.
        XMIG_JOURNAL_INCIDENT(journal_, "watchdog livelock trip");
        lastTrip_ = now;
        cooldownUntil_ = now + cooldown_;
        cooldown_ = cooldown_ < kCooldownCap / 2
                        ? cooldown_ * 2
                        : kCooldownCap;
        stats_.cooldownNow = cooldown_;
        windowStart_ = now;
        windowMigrations_ = 0;
    }
}

bool
Watchdog::takeReinit()
{
    const bool pending = reinitPending_;
    reinitPending_ = false;
    return pending;
}

void
Watchdog::registerMetrics(obs::MetricsRegistry &registry,
                          const std::string &prefix) const
{
    registry.addCounter(prefix + ".livelocks", stats_.livelocks);
    registry.addCounter(prefix + ".suppressed", stats_.suppressed);
    registry.addCounter(prefix + ".reinits", stats_.reinits);
    registry.addCounter(prefix + ".cooldown", stats_.cooldownNow);
}

} // namespace xmig
