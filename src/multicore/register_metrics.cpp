/**
 * @file
 * xmig-scope registration for the machine: kept in its own
 * translation unit so the cold registration code stays out of
 * machine.cpp's hot per-reference text (see
 * core/register_metrics.cpp).
 */

#include "multicore/machine.hpp"
#include "obs/registry.hpp"

namespace xmig {

// Shared with arena.cpp (declared in machine.hpp), which registers
// the arena-owned shared L3 exactly once instead of per machine.
void
registerCacheMetrics(obs::MetricsRegistry &registry,
                     const std::string &prefix, const Cache &cache)
{
    const CacheStats &cs = cache.stats();
    registry.addCounter(prefix + ".accesses", cs.accesses);
    registry.addCounter(prefix + ".hits", cs.hits);
    registry.addCounter(prefix + ".misses", cs.misses);
    registry.addCounter(prefix + ".writebacks", cs.writebacks);
    registry.addGauge(prefix + ".occupancy",
                      static_cast<double>(cache.frames().occupancy()));
}

void
MigrationMachine::registerMetrics(obs::MetricsRegistry &registry,
                                  const std::string &prefix) const
{
    registry.addCounter(prefix + ".instructions",
                        stats_.instructions);
    registry.addCounter(prefix + ".refs", stats_.refs);
    registry.addCounter(prefix + ".l1_misses", stats_.l1Misses);
    registry.addCounter(prefix + ".l2_accesses", stats_.l2Accesses);
    registry.addCounter(prefix + ".l2_misses", stats_.l2Misses);
    registry.addCounter(prefix + ".l2_to_l2_forwards",
                        stats_.l2ToL2Forwards);
    registry.addCounter(prefix + ".l3_writebacks",
                        stats_.l3Writebacks);
    registry.addCounter(prefix + ".migrations", stats_.migrations);
    registry.addCounter(prefix + ".update_bus_stores",
                        stats_.updateBusStores);
    registry.addCounter(prefix + ".prefetch_fills",
                        stats_.prefetchFills);
    registry.addCounter(prefix + ".prefetch_useful",
                        stats_.prefetchUseful);
    registry.addCounter(prefix + ".l3_accesses", stats_.l3Accesses);
    registry.addCounter(prefix + ".l3_misses", stats_.l3Misses);
    registry.addCounter(prefix + ".memory_writebacks",
                        stats_.memoryWritebacks);
    registry.addCounter(prefix + ".core_off_events",
                        stats_.coreOffEvents);
    registry.addCounter(prefix + ".core_on_events",
                        stats_.coreOnEvents);
    registry.addCounter(prefix + ".dirty_lines_lost",
                        stats_.dirtyLinesLost);
    registry.addCounter(prefix + ".bus_drops", stats_.busDrops);
    registry.addCounter(prefix + ".coherence_repairs",
                        stats_.coherenceRepairs);
    registry.addGauge(prefix + ".active_core",
                      static_cast<double>(activeCore_));
    registry.addHistogram(prefix + ".inter_migration_refs",
                          interMigrationGap_);

    const CacheStats &il1 = l1_->il1Stats();
    registry.addCounter(prefix + ".il1.accesses", il1.accesses);
    registry.addCounter(prefix + ".il1.misses", il1.misses);
    const CacheStats &dl1 = l1_->dl1Stats();
    registry.addCounter(prefix + ".dl1.accesses", dl1.accesses);
    registry.addCounter(prefix + ".dl1.misses", dl1.misses);

    for (size_t c = 0; c < l2s_.size(); ++c) {
        registerCacheMetrics(registry,
                             prefix + ".core" + std::to_string(c) +
                                 ".l2",
                             *l2s_[c]);
    }
    if (l3_)
        registerCacheMetrics(registry, prefix + ".l3", *l3_);

    if (controller_)
        controller_->registerMetrics(registry, prefix + ".controller");
    if (injector_)
        injector_->registerMetrics(registry, prefix + ".faults");
}

} // namespace xmig
