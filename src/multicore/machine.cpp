#include "multicore/machine.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/journal.hpp"
#include "util/contracts.hpp"
#include "util/logging.hpp"

namespace xmig {

MigrationMachine::MigrationMachine(const MachineConfig &config)
    : config_(config)
{
    XMIG_ASSERT(config.numCores == 1 ||
                (config.numCores <= 64 &&
                 (config.numCores & (config.numCores - 1)) == 0),
                "numCores must be 1 or a power of two up to 64");

    L1FilterConfig l1c;
    l1c.il1Bytes = config.il1Bytes;
    l1c.dl1Bytes = config.dl1Bytes;
    l1c.lineBytes = config.lineBytes;
    l1c.fullyAssociative = false;
    l1c.ways = config.l1Ways;
    l1c.unifiedReadWrite = false; // write-through, non-write-allocate DL1
    // accessBatch() takes the post-L1 events from filterBatch(), so
    // the filter's sink is never called.
    l1_ = std::make_unique<L1Filter>(l1c, noSink_);

    CacheConfig l2c;
    l2c.capacityBytes = config.l2Bytes;
    l2c.ways = config.l2Ways;
    l2c.lineBytes = config.lineBytes;
    l2c.write = WritePolicy::WriteBackAllocate;
    l2c.skewed = config.l2Skewed;
    for (unsigned c = 0; c < config.numCores; ++c) {
        l2s_.push_back(std::make_unique<Cache>(l2c));
        // processLine() hashes each line once for every L2 probe.
        XMIG_ASSERT(l2s_.back()->frames().sameIndexing(l2s_[0]->frames()),
                    "core %u's L2 is indexed differently", c);
    }

    if (!config.faultPlan.empty()) {
        if (config.numCores > 1) {
            injector_ = std::make_unique<FaultInjector>(
                FaultPlan::parseOrFatal(config.faultPlan));
            busFaulty_ = injector_->armedFor(FaultSite::BusDrop);
        } else {
            XMIG_WARN("fault plan ignored on a single-core machine");
        }
    }

    if (config.numCores > 1) {
        MigrationControllerConfig cc = config.controller;
        cc.numCores = config.numCores;
        cc.faults = injector_.get();
        controller_ = std::make_unique<MigrationController>(cc);
    }

    if (config.prefetch.kind != PrefetchKind::None)
        prefetcher_ = std::make_unique<Prefetcher>(config.prefetch);

    if (config.sharedL3 != nullptr) {
        // xmig-arena: contend for a caller-owned cache; the private
        // l3Bytes geometry is irrelevant and must not also be built.
        l3view_ = config.sharedL3;
    } else if (config.l3Bytes > 0) {
        CacheConfig l3c;
        l3c.capacityBytes = config.l3Bytes;
        l3c.ways = config.l3Ways;
        l3c.lineBytes = config.lineBytes;
        l3c.write = WritePolicy::WriteBackAllocate;
        l3c.skewed = false;
        l3_ = std::make_unique<Cache>(l3c);
        l3view_ = l3_.get();
    }
}

void
MigrationMachine::accessBatch(const MemRef *refs, size_t n)
{
    // Injector ticks, fault draws and core hot-(un)plug events are
    // defined per reference, so an armed fault plan runs one-reference
    // chunks: the tick lands before its reference, as it always has.
    const size_t chunk = injector_ ? 1 : kBatchRefs;
    while (n > 0) {
        const size_t k = n < chunk ? n : chunk;
        if (injector_) {
            injector_->tick();
            if (injector_->coreEventsPending())
                applyCoreEvents();
        }
        const uint64_t base_refs = stats_.refs;
        const uint64_t base_instr = stats_.instructions;

        // Phase 1: the whole chunk through the L1 level in one loop,
        // which also tallies the instruction-fetch count at each
        // event. At most one event per reference, so the machine's
        // chunk buffers fit.
        uint32_t ifetches = 0;
        const size_t m =
            l1_->filterBatch(refs, k, events_, evRef_, evInstr_,
                             &ifetches);

        // Phase 2: the sparse post-L1 events, in reference order,
        // with the counters set to their exact scalar values first —
        // processLine() stamps journal events with stats_.refs.
        for (size_t e = 0; e < m; ++e) {
            stats_.refs = base_refs + evRef_[e] + 1;
            stats_.instructions = base_instr + evInstr_[e];
            processLine(events_[e]);
        }
        stats_.refs = base_refs + k;
        stats_.instructions = base_instr + ifetches;
        XMIG_AUDIT(stats_.instructions <= stats_.refs,
                   "instruction fetches (%llu) outran references (%llu)",
                   (unsigned long long)stats_.instructions,
                   (unsigned long long)stats_.refs);
        refs += k;
        n -= k;
    }
}

void
MigrationMachine::attachJournal(obs::Journal *journal)
{
    journal_ = journal;
    if (controller_)
        controller_->attachJournal(journal);
}

void
MigrationMachine::applyCoreEvents()
{
    XMIG_ASSERT(injector_ && controller_,
                "core fault events with no injector or controller");
    coreEventScratch_.clear();
    injector_->drainCoreEvents(coreEventScratch_);
    for (const CoreFaultEvent &ev : coreEventScratch_) {
        if (ev.core >= config_.numCores) {
            if (!std::exchange(warnedUnknownCore_, true))
                XMIG_WARN("fault plan names core %u of a %u-core "
                          "machine; ignored, and later ones are not "
                          "reported", ev.core, config_.numCores);
            continue;
        }
        const uint64_t live_before = controller_->liveMask();
        if (!ev.online) {
            controller_->setCoreOffline(ev.core);
            if (controller_->liveMask() == live_before)
                continue; // refused (last live core) or already off
            ++stats_.coreOffEvents;
            // Abrupt unplug: the L2 (and any affinity-cache state the
            // controller retired with the resplit) is simply gone.
            // Modified lines whose only copy lived there are lost.
            const uint64_t lost = l2s_[ev.core]->invalidateAll();
            stats_.dirtyLinesLost += lost;
            XMIG_JOURNAL(journal_, obs::JournalKind::CoreOff,
                         obs::JournalCause::FaultForced,
                         static_cast<int64_t>(ev.core),
                         static_cast<int64_t>(lost));
        } else {
            controller_->setCoreOnline(ev.core);
            if (controller_->liveMask() == live_before)
                continue;
            ++stats_.coreOnEvents;
            // The rejoining core's L2 was invalidated on unplug; it
            // refills on demand once execution migrates there.
            XMIG_JOURNAL(journal_, obs::JournalKind::CoreOn,
                         obs::JournalCause::FaultForced,
                         static_cast<int64_t>(ev.core));
        }
        if (activeCore_ != controller_->activeCore()) {
            // Forced migration: the active core was unplugged.
            ++stats_.migrations;
            interMigrationGap_.record(stats_.refs - lastMigrationRef_);
            lastMigrationRef_ = stats_.refs;
            activeCore_ = controller_->activeCore();
        }
    }
}

void
MigrationMachine::processLine(const LineEvent &event)
{
    const bool is_store = event.type == RefType::Store;
    if (event.l1Miss)
        ++stats_.l1Misses;

    // The journal timeline advances in post-L1 references: every
    // event recorded below lands at this logical instant.
    XMIG_JOURNAL_CLOCK(journal_, stats_.refs);

    // Every L2 shares one geometry, so the line's candidate frames are
    // computed once and serve every L2 probe of this event.
    const Cache::Slots slots = l2s_[0]->slots(event.line);
    uint32_t probe = l2s_[activeCore_]->find(event.line, slots);
    if (controller_ && event.l1Miss) {
        // The controller monitors L1-miss requests. With L2 filtering
        // its transition filters move only when the request would
        // miss the *current* active core's L2, so probe before
        // deciding. The probe stays valid for the access below when
        // execution does not migrate (onRequest never touches L2s).
        const unsigned target = controller_->onRequest(
            event.line, /*l2_miss=*/probe == Cache::kNoFrame,
            event.pointer);
        if (target != activeCore_) {
            ++stats_.migrations;
            interMigrationGap_.record(stats_.refs - lastMigrationRef_);
            lastMigrationRef_ = stats_.refs;
            activeCore_ = target;
            probe = l2s_[activeCore_]->find(event.line, slots);
        }
    }

    XMIG_AUDIT(activeCore_ < config_.numCores,
               "active core %u of %u", activeCore_, config_.numCores);

    // The request is serviced by the L2 of the core that is active
    // after any migration: that is the point of distributing the
    // working-set.
    accessL2(event.line, slots, probe, is_store);

    if (is_store)
        broadcastStore(event.line, slots);

    // Dropped update-bus broadcasts leave stale modified bits behind;
    // a periodic scrubber repairs them (self-healing).
    if (busFaulty_ && ++scrubTick_ % 4096 == 0)
        scrubCoherence();

    if constexpr (kAuditParanoid) {
        // Whole-machine coherence sweep (section 2.1's single-
        // modified-copy rule) is O(total L2 entries); amortize it
        // over the post-L1 event stream. With update-bus loss armed
        // the invariant is *expected* to break between scrubs, so
        // the sweep stands down (extended disarm rule, xmig-iron).
        if (!busFaulty_ && ++auditTick_ % 8192 == 0) {
            XMIG_EXPECT(countMultiModifiedLines() == 0,
                        "migration-mode coherence violated: a line "
                        "has multiple modified L2 copies");
        }
    }
}

void
MigrationMachine::scrubCoherence()
{
    // Find lines with more than one modified copy and demote every
    // copy but one — prefer the active core's (freshest value under
    // the lost-broadcast model), else the lowest core's. Demoted
    // copies are written back to L3, as hardware scrubbers do.
    const uint64_t repairs_before = stats_.coherenceRepairs;
    std::unordered_map<uint64_t, std::vector<unsigned>> modified_at;
    for (unsigned c = 0; c < config_.numCores; ++c) {
        const FrameArray &frames = l2s_[c]->frames();
        frames.forEachValid([&](uint32_t f) {
            if (frames.modified(f))
                modified_at[frames.line(f)].push_back(c);
        });
    }
    // Demote in ascending line order, not hash-table order: each
    // demotion writes back to L3 and touches its LRU, so the scrub
    // order is architecturally visible. Sorting keeps the repair
    // sequence a pure function of cache contents across standard
    // libraries (xmig-sentinel unordered-output).
    std::vector<uint64_t> scrub_lines;
    scrub_lines.reserve(modified_at.size());
    // xmig-lint: allow(unordered-output) -- order-free: collects keys
    // into scrub_lines, which is sorted before anything observable.
    for (const auto &[line, cores] : modified_at) {
        if (cores.size() >= 2)
            scrub_lines.push_back(line);
    }
    std::sort(scrub_lines.begin(), scrub_lines.end());
    for (const uint64_t line : scrub_lines) {
        const std::vector<unsigned> &cores = modified_at[line];
        const bool active_has =
            std::find(cores.begin(), cores.end(), activeCore_) !=
            cores.end();
        const unsigned keeper = active_has ? activeCore_ : cores[0];
        for (unsigned c : cores) {
            if (c == keeper)
                continue;
            Cache &l2 = *l2s_[c];
            const uint32_t f = l2.find(line);
            XMIG_ASSERT(f != Cache::kNoFrame && l2.modified(f),
                        "scrub lost track of line %llx on core %u",
                        (unsigned long long)line, c);
            l2.setModified(f, false);
            ++stats_.l3Writebacks;
            writebackToL3(line);
            ++stats_.coherenceRepairs;
        }
    }
    if (stats_.coherenceRepairs > repairs_before) {
        XMIG_JOURNAL(journal_, obs::JournalKind::CoherenceScrub,
                     obs::JournalCause::FaultForced,
                     static_cast<int64_t>(stats_.coherenceRepairs -
                                          repairs_before),
                     static_cast<int64_t>(scrubTick_));
    }
}

void
MigrationMachine::accessL2(uint64_t line, const Cache::Slots &slots,
                           uint32_t probe, bool is_store)
{
    ++stats_.l2Accesses;
    XMIG_AUDIT(stats_.l2Misses < stats_.l2Accesses,
               "L2 misses (%llu) outran accesses (%llu)",
               (unsigned long long)stats_.l2Misses,
               (unsigned long long)stats_.l2Accesses);
    Cache &l2 = *l2s_[activeCore_];
    const AccessOutcome out = l2.accessProbed(line, slots, probe, is_store);
    if (out.writeback) {
        ++stats_.l3Writebacks;
        writebackToL3(out.evictedLine);
    }
    if (out.hit) {
        if (l2.prefetched(out.frame)) {
            l2.setPrefetched(out.frame, false);
            ++stats_.prefetchUseful;
        }
        if (prefetcher_) // stride training sees hits too
            issuePrefetches(line, /*miss=*/false);
        return;
    }

    ++stats_.l2Misses;
    if (prefetcher_)
        issuePrefetches(line, /*miss=*/true);
    if (!out.filled)
        return; // WT store miss at L2 would not occur (L2 is WB/WA)

    // The miss was filled; find out where the data came from. A
    // modified remote copy is forwarded (L2-to-L2 miss) and written
    // back to L3 with its modified bit reset; otherwise the line
    // comes from L3. Either way the penalty class is the same
    // (section 2.1), but we count forwards separately.
    for (unsigned c = 0; c < config_.numCores; ++c) {
        if (c == activeCore_)
            continue;
        Cache &remote = *l2s_[c];
        const uint32_t f = remote.find(line, slots);
        if (f != Cache::kNoFrame && remote.modified(f)) {
            remote.setModified(f, false);
            ++stats_.l2ToL2Forwards;
            ++stats_.l3Writebacks; // simultaneous write-back to L3
            writebackToL3(line);
            return;                // at most one modified copy exists
        }
    }
    // No forwardable copy: the line comes from the L3.
    fetchFromL3(line);
}

void
MigrationMachine::issuePrefetches(uint64_t line, bool miss)
{
    XMIG_ASSERT(prefetcher_ != nullptr,
                "prefetch issue with no prefetcher configured");
    prefetchCandidates_.clear();
    prefetcher_->onDemand(line, miss, prefetchCandidates_);
    Cache &l2 = *l2s_[activeCore_];
    for (uint64_t candidate : prefetchCandidates_) {
        // A clean fill() of a resident line changes nothing.
        const AccessOutcome out = l2.fill(candidate, false);
        if (out.hit)
            continue;
        if (out.writeback) {
            ++stats_.l3Writebacks;
            writebackToL3(out.evictedLine);
        }
        fetchFromL3(candidate);
        l2.setPrefetched(out.frame, true);
        ++stats_.prefetchFills;
    }
}

void
MigrationMachine::fetchFromL3(uint64_t line)
{
    if (!l3view_)
        return; // perfect L3: always hits, nothing to track
    ++stats_.l3Accesses;
    AccessOutcome out = l3view_->access(line, false);
    if (out.writeback)
        ++stats_.memoryWritebacks;
    if (!out.hit)
        ++stats_.l3Misses; // fetched from memory (and filled)
    XMIG_AUDIT(stats_.l3Misses <= stats_.l3Accesses,
               "L3 misses (%llu) outran accesses (%llu)",
               (unsigned long long)stats_.l3Misses,
               (unsigned long long)stats_.l3Accesses);
}

void
MigrationMachine::writebackToL3(uint64_t line)
{
    // Callers count the write-back before routing it here, so a zero
    // counter means an unaccounted architectural event.
    XMIG_AUDIT(stats_.l3Writebacks > 0,
               "write-back of line %llx reached L3 uncounted",
               (unsigned long long)line);
    if (!l3view_)
        return;
    // A write-back allocates in the L3 and marks the line dirty; a
    // dirty L3 eviction goes to memory.
    AccessOutcome out = l3view_->access(line, true);
    if (out.writeback)
        ++stats_.memoryWritebacks;
}

void
MigrationMachine::broadcastStore(uint64_t line, const Cache::Slots &slots)
{
    // Only the active core drives the update bus, and it must be live.
    XMIG_AUDIT(!controller_ ||
                   (controller_->liveMask() >> activeCore_ & 1) != 0,
               "store broadcast from dead core %u (live mask %llx)",
               activeCore_,
               (unsigned long long)(controller_ ? controller_->liveMask()
                                                : 0));
    // A dropped broadcast loses the whole update: inactive copies keep
    // both their stale value and their stale modified bit.
    if (busFaulty_ && injector_->draw(FaultSite::BusDrop)) {
        ++stats_.busDrops;
        return;
    }
    // Update bus: the store value reaches every inactive copy, whose
    // modified bit is reset so that at most the active core's copy is
    // modified (section 2.1). Values are not modeled, only state.
    for (unsigned c = 0; c < config_.numCores; ++c) {
        if (c == activeCore_)
            continue;
        Cache &copy = *l2s_[c];
        const uint32_t f = copy.find(line, slots);
        if (f != Cache::kNoFrame) {
            copy.setModified(f, false);
            ++stats_.updateBusStores;
        }
    }
}

void
MigrationMachine::resetStats()
{
    stats_ = {};
    // Gaps are measured in stats_.refs, which just restarted at 0.
    interMigrationGap_.reset();
    lastMigrationRef_ = 0;
    l1_->resetStats();
    for (auto &l2 : l2s_)
        l2->resetStats();
    if (l3_)
        l3_->resetStats();
    XMIG_AUDIT(l1_->il1Stats().accesses == 0 &&
                   l1_->dl1Stats().accesses == 0,
               "L1 counters survived a stats reset");
}

namespace {

std::vector<MachineCheckpoint::LineState>
captureCache(const Cache &cache)
{
    std::vector<MachineCheckpoint::LineState> out;
    const FrameArray &frames = cache.frames();
    frames.forEachValid([&](uint32_t f) {
        out.push_back({frames.line(f), frames.modified(f)});
    });
    // forEachValid order depends on the index function; sort for a
    // deterministic record (and deterministic refill order below).
    std::sort(out.begin(), out.end(),
              [](const MachineCheckpoint::LineState &a,
                 const MachineCheckpoint::LineState &b) {
                  return a.line < b.line;
              });
    return out;
}

void
refillCache(Cache &cache, const std::vector<MachineCheckpoint::LineState> &lines)
{
    cache.invalidateAll();
    for (const MachineCheckpoint::LineState &ls : lines)
        cache.fill(ls.line, ls.modified);
}

} // namespace

MachineCheckpoint
MigrationMachine::checkpoint() const
{
    MachineCheckpoint c;
    c.stats = stats_;
    c.activeCore = activeCore_;
    c.l2Contents.reserve(l2s_.size());
    for (const auto &l2 : l2s_)
        c.l2Contents.push_back(captureCache(*l2));
    if (l3_)
        c.l3Contents = captureCache(*l3_);
    if (controller_) {
        c.hasController = true;
        c.controller = controller_->checkpoint();
    }
    return c;
}

void
MigrationMachine::restore(const MachineCheckpoint &ckpt)
{
    XMIG_ASSERT(ckpt.l2Contents.size() == l2s_.size(),
                "checkpoint has %zu L2s, machine has %zu",
                ckpt.l2Contents.size(), l2s_.size());
    XMIG_ASSERT(ckpt.hasController == (controller_ != nullptr),
                "checkpoint/machine controller presence mismatch");
    stats_ = ckpt.stats;
    activeCore_ = ckpt.activeCore;
    for (size_t c = 0; c < l2s_.size(); ++c)
        refillCache(*l2s_[c], ckpt.l2Contents[c]);
    if (l3_)
        refillCache(*l3_, ckpt.l3Contents);
    if (controller_) {
        controller_->restore(ckpt.controller);
        XMIG_ASSERT(controller_->activeCore() == activeCore_,
                    "restored machine/controller active-core desync: "
                    "%u vs %u", activeCore_, controller_->activeCore());
    }
}

uint64_t
MigrationMachine::countMultiModifiedLines() const
{
    // Collect modified lines per core and count collisions.
    std::unordered_map<uint64_t, unsigned> modified_copies;
    for (const auto &l2 : l2s_) {
        const FrameArray &frames = l2->frames();
        frames.forEachValid([&](uint32_t f) {
            if (frames.modified(f))
                ++modified_copies[frames.line(f)];
        });
    }
    uint64_t bad = 0;
    // xmig-lint: allow(unordered-output) -- order-free: pure count,
    // the same whatever order the table is walked in.
    for (const auto &[line, n] : modified_copies) {
        if (n > 1)
            ++bad;
    }
    return bad;
}

} // namespace xmig
