/**
 * @file
 * xmig-scope registration for the core layer: every component's
 * registerMetrics lives here, in a translation unit of its own, so
 * the cold registration code is laid out away from the hot
 * per-reference paths of engine.cpp, kway_splitter.cpp and
 * migration_controller.cpp.
 */

#include "core/engine.hpp"
#include "core/kway_splitter.hpp"
#include "core/migration_controller.hpp"
#include "core/oe_store.hpp"
#include "core/soa_oe_store.hpp"
#include "obs/registry.hpp"

namespace xmig {

void
AffinityEngine::registerMetrics(obs::MetricsRegistry &registry,
                                const std::string &prefix) const
{
    registry.addCounter(prefix + ".references", references_);
    registry.addGauge(prefix + ".delta", static_cast<double>(delta()));
    registry.addGauge(prefix + ".window_affinity",
                      static_cast<double>(windowAffinity()));
    registry.addGauge(prefix + ".window_occupancy",
                      static_cast<double>(fifo_ ? fifo_->size()
                                                : lru_->size()));
}

void
registerFilterMetrics(obs::MetricsRegistry &registry,
                      const std::string &prefix,
                      const TransitionFilter &filter)
{
    registry.addGauge(prefix + ".value",
                      static_cast<double>(filter.value()));
    registry.addGauge(prefix + ".transitions",
                      static_cast<double>(filter.transitions()));
    registry.addGauge(prefix + ".updates",
                      static_cast<double>(filter.updates()));
    registry.addGauge(prefix + ".saturated",
                      filter.saturated() ? 1.0 : 0.0);
}

void
KWaySplitter::registerMetrics(obs::MetricsRegistry &registry,
                              const std::string &prefix) const
{
    registry.addCounter(prefix + ".transitions", transitions_);
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const std::string node_prefix =
            prefix + ".node" + std::to_string(i);
        nodes_[i].engine->registerMetrics(registry,
                                          node_prefix + ".engine");
        registerFilterMetrics(registry, node_prefix + ".filter",
                              nodes_[i].filter);
    }
}

void
MigrationController::registerMetrics(obs::MetricsRegistry &registry,
                                     const std::string &prefix) const
{
    registry.addCounter(prefix + ".requests", stats_.requests);
    registry.addCounter(prefix + ".filter_updates",
                        stats_.filterUpdates);
    registry.addCounter(prefix + ".transitions", stats_.transitions);
    registry.addCounter(prefix + ".migrations", stats_.migrations);
    registry.addGauge(prefix + ".active_core",
                      static_cast<double>(activeCore_));

    const OeStoreStats &ss = store_->stats();
    registry.addCounter(prefix + ".store.lookups", ss.lookups);
    registry.addCounter(prefix + ".store.misses", ss.misses);
    registry.addCounter(prefix + ".store.stores", ss.stores);
    registry.addCounter(prefix + ".store.evictions", ss.evictions);
    if (const auto *bounded =
            dynamic_cast<const SoaAffinityStore *>(store_.get())) {
        registry.addGauge(prefix + ".store.occupancy",
                          static_cast<double>(bounded->occupancy()));
    }

    if (splitter_)
        splitter_->registerMetrics(registry, prefix + ".splitter");

    // xmig-iron resilience counters.
    const std::string rp = prefix + ".recovery";
    registry.addCounter(rp + ".cores_lost", recovery_.coresLost);
    registry.addCounter(rp + ".cores_joined", recovery_.coresJoined);
    registry.addCounter(rp + ".resplits", recovery_.resplits);
    registry.addCounter(rp + ".forced_migrations",
                        recovery_.forcedMigrations);
    registry.addCounter(rp + ".store_corruptions",
                        recovery_.storeCorruptions);
    registry.addCounter(rp + ".store_drops", recovery_.storeDrops);
    registry.addCounter(rp + ".mig_dropped", recovery_.migDropped);
    registry.addCounter(rp + ".mig_delayed", recovery_.migDelayed);
    registry.addCounter(rp + ".mig_timeouts", recovery_.migTimeouts);
    registry.addCounter(rp + ".mig_retries", recovery_.migRetries);
    registry.addCounter(rp + ".filter_reinits",
                        recovery_.filterReinits);
    registry.addHistogram(rp + ".resplit_gap_requests", resplitGap_);
    registry.addGauge(rp + ".live_cores",
                      static_cast<double>(liveCores()));
    registry.addGauge(rp + ".split_ways",
                      static_cast<double>(splitWays_));
    if (watchdog_.enabled())
        watchdog_.registerMetrics(registry, prefix + ".watchdog");
}

} // namespace xmig
