#include "core/migration_controller.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "core/soa_oe_store.hpp"
#include "fault/fault_injector.hpp"
#include "obs/journal.hpp"
#include "util/contracts.hpp"
#include "util/logging.hpp"

namespace xmig {

namespace {

// The lossy migration fabric (used only under fault plans): a request
// unacknowledged for kTimeoutRequests requests is lost, and the next
// issue waits a backoff that starts at kBackoffBase requests and
// doubles per timeout up to kBackoffCap.
constexpr uint64_t kTimeoutRequests = 64;
constexpr uint64_t kBackoffBase = 32;
constexpr uint64_t kBackoffCap = 8192;

} // namespace

MigrationController::MigrationController(
    const MigrationControllerConfig &config)
    : config_(config), store_(makeStore()), watchdog_(config.watchdog)
{
    XMIG_ASSERT(config.numCores >= 2 && config.numCores <= 64 &&
                (config.numCores & (config.numCores - 1)) == 0,
                "splitting needs a power-of-two core count in [2, 64], "
                "not %u", config.numCores);

    liveMask_ = config_.numCores == 64
        ? ~uint64_t{0}
        : (uint64_t{1} << config_.numCores) - 1;
    splitWays_ = config_.numCores;
    backoff_ = kBackoffBase;

    buildSplitter(splitWays_);
    recomputeMapping();
}

std::unique_ptr<OeStore>
MigrationController::makeStore() const
{
    if (config_.boundedStore) {
        AffinityCacheConfig ac = config_.affinityCache;
        ac.affinityBits = config_.affinityBits;
        return std::make_unique<SoaAffinityStore>(ac);
    }
    return std::make_unique<UnboundedOeStore>(config_.affinityBits);
}

void
MigrationController::buildSplitter(unsigned ways)
{
    XMIG_ASSERT(ways >= 2 && (ways & (ways - 1)) == 0,
                "cannot build a %u-way splitter", ways);
    KWaySplitter::Config sc;
    sc.depth = static_cast<unsigned>(std::countr_zero(ways));
    sc.affinityBits = config_.affinityBits;
    sc.rootWindow = config_.windowX;
    sc.window = config_.window;
    sc.ar = config_.ar;
    sc.filterBits = config_.filterBits;
    sc.samplingCutoff = config_.samplingCutoff;
    sc.shadowAudit = config_.shadowAudit;
    sc.faults = config_.faults;
    splitter_ = std::make_unique<KWaySplitter>(sc, *store_);
    // Keep the causal journal attached across resplits/restores.
    if (journal_ != nullptr)
        splitter_->attachJournal(journal_);
}

void
MigrationController::attachJournal(obs::Journal *journal)
{
    // A splitter exists whenever there is something to split;
    // buildSplitter re-attaches the journal on every rebuild.
    XMIG_AUDIT((splitter_ != nullptr) == (splitWays_ > 1),
               "%s splitter for a %u-way split",
               splitter_ ? "a" : "no", splitWays_);
    journal_ = journal;
    if (splitter_)
        splitter_->attachJournal(journal);
    watchdog_.attachJournal(journal);
    if (config_.faults != nullptr)
        config_.faults->attachJournal(journal);
}

int64_t
MigrationController::rootArForJournal() const
{
    return splitWays_ > 1 ? rootEngine().windowAffinity() : 0;
}

int64_t
MigrationController::rootFilterForJournal() const
{
    return splitWays_ > 1 ? rootFilter().value() : 0;
}

void
MigrationController::recomputeMapping()
{
    subsetToCore_.assign(splitWays_, 0);
    unsigned s = 0;
    for (unsigned c = 0; c < config_.numCores && s < splitWays_; ++c) {
        if (liveMask_ >> c & 1)
            subsetToCore_[s++] = c;
    }
    XMIG_ASSERT(s == splitWays_,
                "only %u live cores for a %u-way split", s, splitWays_);
}

void
MigrationController::applyTopology()
{
    const unsigned live =
        static_cast<unsigned>(std::popcount(liveMask_));
    unsigned ways = 1;
    while (ways * 2 <= live)
        ways *= 2;
    ways = std::min(ways, config_.numCores);
    if (ways != splitWays_) {
        // The store's O_e values are relative to the old engines'
        // Delta registers, so the rebuilt splitter starts from an
        // emptied store and re-learns the working-set split. The
        // store keeps its statistics.
        splitter_.reset();
        store_->restoreEntries({}, store_->stats());
        splitWays_ = ways;
        transitionsBase_ = stats_.transitions;
        if (ways > 1)
            buildSplitter(ways);
        ++recovery_.resplits;
        const uint64_t gap = stats_.requests - lastResplitAt_;
        resplitGap_.record(gap);
        lastResplitAt_ = stats_.requests;
        XMIG_JOURNAL(journal_, obs::JournalKind::Resplit,
                     obs::JournalCause::FaultForced,
                     static_cast<int64_t>(ways),
                     static_cast<int64_t>(liveMask_),
                     static_cast<int64_t>(gap));
    }
    recomputeMapping();
    XMIG_AUDIT(std::has_single_bit(splitWays_) && splitWays_ <= live,
               "split arity %u is not a live-fitting power of two "
               "(%u live cores)", splitWays_, live);
}

unsigned
MigrationController::liveCores() const
{
    return static_cast<unsigned>(std::popcount(liveMask_));
}

unsigned
MigrationController::coreForSubset(unsigned subset) const
{
    XMIG_ASSERT(subset < subsetToCore_.size(),
                "subset %u of %zu", subset, subsetToCore_.size());
    return subsetToCore_[subset];
}

void
MigrationController::setCoreOffline(unsigned core)
{
    if (core >= config_.numCores || !(liveMask_ >> core & 1)) {
        if (!std::exchange(warnedOffIgnored_, true))
            XMIG_WARN("core_off for core %u ignored (unknown or already "
                      "offline); later ones are not reported", core);
        return;
    }
    if (std::popcount(liveMask_) == 1) {
        if (!std::exchange(warnedLastCore_, true))
            XMIG_WARN("refusing to take the last live core %u offline; "
                      "later refusals are not reported", core);
        return;
    }
    liveMask_ &= ~(uint64_t{1} << core);
    ++recovery_.coresLost;
    if (pendingValid_ && pendingTarget_ == core)
        pendingValid_ = false; // in-flight target vanished
    if (activeCore_ == core) {
        // The execution's host died: restart on the lowest live core.
        const unsigned refuge =
            static_cast<unsigned>(std::countr_zero(liveMask_));
        XMIG_JOURNAL(journal_, obs::JournalKind::ForcedMigration,
                     obs::JournalCause::FaultForced,
                     static_cast<int64_t>(core),
                     static_cast<int64_t>(refuge));
        activeCore_ = refuge;
        ++stats_.migrations;
        ++recovery_.forcedMigrations;
    }
    applyTopology();
    XMIG_AUDIT(liveMask_ >> activeCore_ & 1,
               "active core %u left dead after core-off recovery",
               activeCore_);
}

void
MigrationController::setCoreOnline(unsigned core)
{
    if (core >= config_.numCores || (liveMask_ >> core & 1)) {
        if (!std::exchange(warnedOnIgnored_, true))
            XMIG_WARN("core_on for core %u ignored (unknown or already "
                      "online); later ones are not reported", core);
        return;
    }
    liveMask_ |= uint64_t{1} << core;
    ++recovery_.coresJoined;
    applyTopology();
    XMIG_AUDIT((liveMask_ >> core & 1) &&
                   (liveMask_ >> activeCore_ & 1),
               "rejoin of core %u left the topology inconsistent",
               core);
}

unsigned
MigrationController::subset() const
{
    return splitter_ ? splitter_->subset() : 0;
}

void
MigrationController::injectStoreFaults()
{
    XMIG_ASSERT(config_.faults != nullptr,
                "injectStoreFaults called with no injector armed");
    FaultInjector &fi = *config_.faults;
    if (fi.armedFor(FaultSite::OeEntry) && fi.draw(FaultSite::OeEntry) &&
        store_->corruptRandomEntry(fi.rng())) {
        ++recovery_.storeCorruptions;
        disarmRootShadow("injected O_e corruption");
    }
    if (fi.armedFor(FaultSite::CacheTag) &&
        fi.draw(FaultSite::CacheTag) &&
        store_->dropRandomEntry(fi.rng())) {
        ++recovery_.storeDrops;
        disarmRootShadow("injected affinity-cache tag corruption");
    }
}

void
MigrationController::disarmRootShadow(const char *reason)
{
    if (splitter_)
        splitter_->rootEngine().disarmShadow(reason);
}

void
MigrationController::serviceMigrationFabric(uint64_t now)
{
    if (!pendingValid_)
        return;
    XMIG_AUDIT(now >= pendingIssued_,
               "fabric serviced backwards in time: now=%llu < "
               "issued=%llu", (unsigned long long)now,
               (unsigned long long)pendingIssued_);
    if (now >= pendingDue_) {
        // Delivery: the fabric acknowledged the (delayed) request.
        const unsigned target = pendingTarget_;
        pendingValid_ = false;
        if (liveMask_ >> target & 1)
            completeMigration(target, now,
                              obs::JournalCause::FabricDelivery);
        return;
    }
    if (now - pendingIssued_ >= kTimeoutRequests) {
        // Lost (dropped, or delayed past the timeout): back off and
        // let the next divergent decision re-issue.
        pendingValid_ = false;
        ++recovery_.migTimeouts;
        nextIssueAllowed_ = now + backoff_;
        backoff_ = std::min(backoff_ * 2, kBackoffCap);
        retryPending_ = true;
        XMIG_JOURNAL(journal_, obs::JournalKind::MigrationTimeout,
                     obs::JournalCause::FaultForced,
                     static_cast<int64_t>(pendingTarget_),
                     static_cast<int64_t>(backoff_));
    }
}

void
MigrationController::requestMigration(unsigned target, uint64_t now)
{
    XMIG_ASSERT(target < config_.numCores,
                "migration request to nonexistent core %u", target);
    if (watchdog_.enabled() && !watchdog_.migrationAllowed(now)) {
        XMIG_JOURNAL(journal_, obs::JournalKind::MigrationVeto,
                     obs::JournalCause::WatchdogVeto,
                     static_cast<int64_t>(target), rootArForJournal(),
                     rootFilterForJournal());
        return;
    }

    const bool fabric_faulty = config_.faults &&
        (config_.faults->armedFor(FaultSite::MigDrop) ||
         config_.faults->armedFor(FaultSite::MigDelay));
    if (!fabric_faulty) {
        // Ideal fabric: the classic instantaneous migration.
        completeMigration(target, now, obs::JournalCause::Threshold);
        return;
    }

    if (pendingValid_) {
        if (pendingTarget_ == target)
            return; // already in flight
        pendingValid_ = false; // superseded by a new target
    }
    if (now < nextIssueAllowed_)
        return; // backing off after a timeout
    if (retryPending_) {
        ++recovery_.migRetries;
        retryPending_ = false;
        XMIG_JOURNAL(journal_, obs::JournalKind::MigrationRetry,
                     obs::JournalCause::FaultForced,
                     static_cast<int64_t>(target),
                     static_cast<int64_t>(recovery_.migRetries));
    }

    FaultInjector &fi = *config_.faults;
    if (fi.armedFor(FaultSite::MigDrop) && fi.draw(FaultSite::MigDrop)) {
        // Silently lost: only the timeout will notice.
        pendingValid_ = true;
        pendingTarget_ = target;
        pendingIssued_ = now;
        pendingDue_ = UINT64_MAX;
        ++recovery_.migDropped;
        XMIG_JOURNAL(journal_, obs::JournalKind::MigrationDrop,
                     obs::JournalCause::FaultForced,
                     static_cast<int64_t>(target));
        return;
    }
    if (fi.armedFor(FaultSite::MigDelay) &&
        fi.draw(FaultSite::MigDelay)) {
        pendingValid_ = true;
        pendingTarget_ = target;
        pendingIssued_ = now;
        pendingDue_ = now + fi.migrationDelay();
        ++recovery_.migDelayed;
        XMIG_JOURNAL(journal_, obs::JournalKind::MigrationDelay,
                     obs::JournalCause::FaultForced,
                     static_cast<int64_t>(target),
                     static_cast<int64_t>(pendingDue_ - now));
        return;
    }
    completeMigration(target, now, obs::JournalCause::Threshold);
}

void
MigrationController::completeMigration(unsigned target, uint64_t now,
                                       obs::JournalCause cause)
{
    XMIG_ASSERT(liveMask_ >> target & 1,
                "migration to offline core %u", target);
    ++stats_.migrations;
    XMIG_JOURNAL(journal_, obs::JournalKind::Migration, cause,
                 static_cast<int64_t>(activeCore_),
                 static_cast<int64_t>(target),
                 static_cast<int64_t>(stats_.migrations),
                 rootArForJournal(), rootFilterForJournal());
    activeCore_ = target;
    pendingValid_ = false;
    backoff_ = kBackoffBase;
    nextIssueAllowed_ = 0;
    watchdog_.onMigration(now);
}

unsigned
MigrationController::onRequest(uint64_t line, bool l2_miss,
                               bool pointer_load)
{
    ++stats_.requests;
    const uint64_t now = stats_.requests;

    if (config_.faults)
        injectStoreFaults();

    if (splitWays_ <= 1) {
        // Lone survivor: nothing left to split, execution is pinned.
        return activeCore_;
    }

    serviceMigrationFabric(now);

    const bool update_filter =
        (!config_.l2Filtering || l2_miss) &&
        (!config_.pointerLoadFilter || pointer_load);

    const SplitDecision decision =
        splitter_->onReference(line, update_filter);

    if (decision.sampled && update_filter)
        ++stats_.filterUpdates;
    if (decision.transition) {
        ++stats_.transitions;
        XMIG_JOURNAL(journal_, obs::JournalKind::Transition,
                     obs::JournalCause::Threshold,
                     static_cast<int64_t>(decision.subset), decision.ae,
                     rootFilterForJournal(), rootArForJournal());
    }

    // Controller state-transition invariants: the splitter may only
    // name a real subset, and the subset can only move when the
    // filters were allowed to move.
    XMIG_AUDIT(decision.subset < splitWays_,
               "splitter chose subset %u of %u ways", decision.subset,
               splitWays_);
    XMIG_AUDIT(update_filter || !decision.transition,
               "transition while the filter was frozen (L2/pointer "
               "filtering violated)");

    if (watchdog_.enabled()) {
        watchdog_.onRequest(now, rootFilter().saturated());
        if (watchdog_.takeReinit()) {
            resetFilters();
            ++recovery_.filterReinits;
            XMIG_JOURNAL(journal_, obs::JournalKind::FilterReinit,
                         obs::JournalCause::WatchdogReinit,
                         static_cast<int64_t>(now));
        }
    }

    const unsigned desired = subsetToCore_[decision.subset];
    XMIG_AUDIT(liveMask_ >> desired & 1,
               "subset %u maps to offline core %u", decision.subset,
               desired);
    if (desired != activeCore_) {
        requestMigration(desired, now);
    } else if (pendingValid_) {
        // The splitter reverted while the request was in flight;
        // completing it now would migrate away from the right core.
        pendingValid_ = false;
    }

    // A migration is (at most) a subset change relative to the
    // current placement; recovery actions may each move the core once
    // without a recorded splitter transition: forced migrations,
    // filter re-inits, and every *accepted* topology event — not just
    // arity-changing resplits, because applyTopology() recomputes the
    // subset-to-core mapping on every churn event (e.g. a rejoin that
    // keeps a 2-way split remaps [1,2] to [0,1], moving the desired
    // core under an unchanged subset; found by xmig-forge fuzzing).
    XMIG_AUDIT(stats_.transitions ==
                   transitionsBase_ + splitterTransitions(),
               "controller/splitter transition desync: %llu vs "
               "%llu + %llu",
               (unsigned long long)stats_.transitions,
               (unsigned long long)transitionsBase_,
               (unsigned long long)splitterTransitions());
    XMIG_AUDIT(stats_.migrations <=
                   stats_.transitions + recovery_.forcedMigrations +
                       recovery_.filterReinits + recovery_.coresLost +
                       recovery_.coresJoined,
               "controller statistics desync: %llu migrations, %llu "
               "transitions (+%llu forced, %llu reinits, %llu lost, "
               "%llu joined)",
               (unsigned long long)stats_.migrations,
               (unsigned long long)stats_.transitions,
               (unsigned long long)recovery_.forcedMigrations,
               (unsigned long long)recovery_.filterReinits,
               (unsigned long long)recovery_.coresLost,
               (unsigned long long)recovery_.coresJoined);
    return activeCore_;
}

unsigned
MigrationController::onRequestBatch(const Request *reqs, size_t n)
{
    // Every request runs the full decision body: the controller's
    // per-request state machine (migration fabric, watchdog, retry
    // backoff) is inherently sequential, so the batch form only
    // amortizes the call overhead — the win lives in the engine and
    // L1 layers below. Kept as the exact scalar loop on purpose.
    const uint64_t requests_before = stats_.requests;
    unsigned core = activeCore_;
    for (size_t i = 0; i < n; ++i) {
        core = onRequest(reqs[i].line, reqs[i].l2Miss,
                         reqs[i].pointerLoad);
    }
    XMIG_AUDIT(stats_.requests == requests_before + n,
               "batch of %zu requests accounted %llu", n,
               (unsigned long long)(stats_.requests - requests_before));
    return core;
}

std::optional<int64_t>
MigrationController::affinityOf(uint64_t line) const
{
    if (!splitter_)
        return std::nullopt;
    return splitter_->rootEngine().affinityOf(line);
}

const ShadowAudit *
MigrationController::shadowAudit() const
{
    return splitter_ ? splitter_->rootEngine().shadow() : nullptr;
}

const AffinityEngine &
MigrationController::rootEngine() const
{
    XMIG_ASSERT(splitter_ != nullptr, "no splitter (single live core)");
    return splitter_->rootEngine();
}

const TransitionFilter &
MigrationController::rootFilter() const
{
    XMIG_ASSERT(splitter_ != nullptr, "no splitter (single live core)");
    return splitter_->rootFilter();
}

uint64_t
MigrationController::splitterTransitions() const
{
    return splitter_ ? splitter_->transitions() : 0;
}

void
MigrationController::resetFilters()
{
    if (splitter_)
        splitter_->resetFilters();
}

ControllerCheckpoint
MigrationController::checkpoint() const
{
    XMIG_JOURNAL(journal_, obs::JournalKind::Checkpoint,
                 obs::JournalCause::Explicit,
                 static_cast<int64_t>(stats_.requests));
    ControllerCheckpoint c;
    c.numCores = config_.numCores;
    c.splitWays = splitWays_;
    c.liveMask = liveMask_;
    c.activeCore = activeCore_;
    c.stats = stats_;
    c.recovery = recovery_;
    if (splitter_)
        splitter_->checkpoint(c.engines, c.filters);
    store_->snapshotEntries(c.storeEntries);
    c.storeStats = store_->stats();
    return c;
}

void
MigrationController::restore(const ControllerCheckpoint &ckpt)
{
    XMIG_ASSERT(ckpt.numCores == config_.numCores,
                "checkpoint for %u cores restored into a %u-core "
                "controller", ckpt.numCores, config_.numCores);
    liveMask_ = ckpt.liveMask;
    activeCore_ = ckpt.activeCore;
    stats_ = ckpt.stats;
    recovery_ = ckpt.recovery;
    XMIG_JOURNAL(journal_, obs::JournalKind::Restore,
                 obs::JournalCause::Explicit,
                 static_cast<int64_t>(stats_.requests));

    // Quiesce the fabric and the backoff machinery.
    pendingValid_ = false;
    nextIssueAllowed_ = 0;
    backoff_ = kBackoffBase;
    retryPending_ = false;

    // Rebuild the splitter at the checkpointed arity, then load the
    // engine/filter/store state into the fresh structure. The store
    // object is reused; only its contents are replaced.
    splitter_.reset();
    splitWays_ = ckpt.splitWays;
    if (splitWays_ > 1)
        buildSplitter(splitWays_);
    recomputeMapping();
    store_->restoreEntries(ckpt.storeEntries, ckpt.storeStats);
    if (splitter_)
        splitter_->restore(ckpt.engines, ckpt.filters);
    transitionsBase_ = stats_.transitions;
}

} // namespace xmig
