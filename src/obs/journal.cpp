#include "obs/journal.hpp"

#include <cstdio>
#include <mutex>

#include "obs/json.hpp"
#include "util/contracts.hpp"
#include "util/logging.hpp"
#include "util/thread_annotations.hpp"

namespace xmig::obs {

namespace {

/**
 * Process-wide registry of live journals, consulted by the XMIG_PANIC
 * hook to flush armed flight recorders post-mortem. Journals are
 * single-thread confined, but construction/destruction can race
 * across sweep cells, so the registry itself takes a lock.
 */
struct JournalRegistry
{
    std::mutex mutex;
    std::vector<Journal *> journals XMIG_GUARDED_BY(mutex);
};

JournalRegistry &
journalRegistry()
{
    static JournalRegistry registry;
    return registry;
}

/**
 * Flushes every armed journal. Runs on the abort path, where the
 * crashing thread may *be* a sweep cell mid-record: the dump is
 * best-effort by design — a torn final record beats losing the
 * whole causal history.
 */
void
dumpArmedJournals()
{
    JournalRegistry &registry = journalRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (const Journal *journal : registry.journals) {
        if (!journal->dumpPath().empty())
            journal->dumpNow("XMIG_PANIC");
    }
}

void
registerJournal(Journal *journal)
{
    JournalRegistry &registry = journalRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    if (registry.journals.empty())
        xmig::setPanicHook(&dumpArmedJournals);
    registry.journals.push_back(journal);
}

/** Write `text` to `path`, warning (as `what` output) on failure. */
bool
writeText(const std::string &path, const std::string &text,
          const char *what)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        XMIG_WARN("cannot open %s output %s", what, path.c_str());
        return false;
    }
    const size_t written =
        std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    if (written != text.size()) {
        XMIG_WARN("short write on %s output %s", what, path.c_str());
        return false;
    }
    return true;
}

void
unregisterJournal(Journal *journal)
{
    JournalRegistry &registry = journalRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    std::erase(registry.journals, journal);
}

} // namespace

const char *
journalKindName(JournalKind kind)
{
    switch (kind) {
      case JournalKind::Migration:
        return "migration";
      case JournalKind::MigrationVeto:
        return "migration_veto";
      case JournalKind::MigrationDrop:
        return "migration_drop";
      case JournalKind::MigrationDelay:
        return "migration_delay";
      case JournalKind::MigrationTimeout:
        return "migration_timeout";
      case JournalKind::MigrationRetry:
        return "migration_retry";
      case JournalKind::Transition:
        return "transition";
      case JournalKind::NodeFlip:
        return "node_flip";
      case JournalKind::Resplit:
        return "resplit";
      case JournalKind::ForcedMigration:
        return "forced_migration";
      case JournalKind::CoreOff:
        return "core_off";
      case JournalKind::CoreOn:
        return "core_on";
      case JournalKind::FaultInject:
        return "fault_inject";
      case JournalKind::FilterReinit:
        return "filter_reinit";
      case JournalKind::WatchdogTrip:
        return "watchdog_trip";
      case JournalKind::Checkpoint:
        return "checkpoint";
      case JournalKind::Restore:
        return "restore";
      case JournalKind::CoherenceScrub:
        return "coherence_scrub";
      case JournalKind::ShadowDisarm:
        return "shadow_disarm";
      case JournalKind::TenantAdmit:
        return "tenant_admit";
      case JournalKind::TenantTurn:
        return "tenant_turn";
      case JournalKind::TenantFinish:
        return "tenant_finish";
      case JournalKind::TenantPartition:
        return "tenant_partition";
      case JournalKind::kCount:
        break;
    }
    return "unknown";
}

const char *
journalCauseName(JournalCause cause)
{
    switch (cause) {
      case JournalCause::None:
        return "none";
      case JournalCause::Threshold:
        return "threshold";
      case JournalCause::FabricDelivery:
        return "fabric_delivery";
      case JournalCause::FaultForced:
        return "fault_forced";
      case JournalCause::WatchdogVeto:
        return "watchdog_veto";
      case JournalCause::WatchdogReinit:
        return "watchdog_reinit";
      case JournalCause::Livelock:
        return "livelock";
      case JournalCause::PlanEvent:
        return "plan_event";
      case JournalCause::Explicit:
        return "explicit";
      case JournalCause::Tenant:
        return "tenant";
      case JournalCause::kCount:
        break;
    }
    return "unknown";
}

const char *const *
journalArgNames(JournalKind kind)
{
    // One nullptr-terminated name table per kind; slots past the
    // table are not exported. Keep in sync with the emission sites.
    static const char *const kMigration[] = {"from", "to", "n", "ar",
                                             "filter", nullptr};
    static const char *const kVeto[] = {"target", "ar", "filter",
                                        nullptr};
    static const char *const kDrop[] = {"target", nullptr};
    static const char *const kDelay[] = {"target", "delay", nullptr};
    static const char *const kTimeout[] = {"target", "backoff",
                                           nullptr};
    static const char *const kRetry[] = {"target", "retries", nullptr};
    static const char *const kTransition[] = {"subset", "ae", "filter",
                                              "ar", nullptr};
    static const char *const kNodeFlip[] = {"node", "level", "filter",
                                            nullptr};
    static const char *const kResplit[] = {"ways", "live_mask", "gap",
                                           nullptr};
    static const char *const kForced[] = {"from", "to", nullptr};
    static const char *const kCoreOff[] = {"core", "dirty_lost",
                                           nullptr};
    static const char *const kCoreOn[] = {"core", nullptr};
    static const char *const kFault[] = {"site", "tick", nullptr};
    static const char *const kReinit[] = {"at", nullptr};
    static const char *const kTrip[] = {"migrations", "cooldown",
                                        nullptr};
    static const char *const kCkpt[] = {"refs", nullptr};
    static const char *const kScrub[] = {"repairs", "tick", nullptr};
    static const char *const kDisarm[] = {"refs", nullptr};
    static const char *const kAdmit[] = {"tenant", "slot", "score",
                                         nullptr};
    static const char *const kTurn[] = {"tenant", "refs", "cycles",
                                        nullptr};
    static const char *const kFinish[] = {"tenant", "refs", "cycles",
                                          nullptr};
    static const char *const kPartition[] = {"tenant", "cluster",
                                             "ways", nullptr};
    static const char *const kNone[] = {nullptr};
    switch (kind) {
      case JournalKind::Migration:
        return kMigration;
      case JournalKind::MigrationVeto:
        return kVeto;
      case JournalKind::MigrationDrop:
        return kDrop;
      case JournalKind::MigrationDelay:
        return kDelay;
      case JournalKind::MigrationTimeout:
        return kTimeout;
      case JournalKind::MigrationRetry:
        return kRetry;
      case JournalKind::Transition:
        return kTransition;
      case JournalKind::NodeFlip:
        return kNodeFlip;
      case JournalKind::Resplit:
        return kResplit;
      case JournalKind::ForcedMigration:
        return kForced;
      case JournalKind::CoreOff:
        return kCoreOff;
      case JournalKind::CoreOn:
        return kCoreOn;
      case JournalKind::FaultInject:
        return kFault;
      case JournalKind::FilterReinit:
        return kReinit;
      case JournalKind::WatchdogTrip:
        return kTrip;
      case JournalKind::Checkpoint:
      case JournalKind::Restore:
        return kCkpt;
      case JournalKind::CoherenceScrub:
        return kScrub;
      case JournalKind::ShadowDisarm:
        return kDisarm;
      case JournalKind::TenantAdmit:
        return kAdmit;
      case JournalKind::TenantTurn:
        return kTurn;
      case JournalKind::TenantFinish:
        return kFinish;
      case JournalKind::TenantPartition:
        return kPartition;
      case JournalKind::kCount:
        break;
    }
    return kNone;
}

Journal::Journal(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1)
{
    ring_.reserve(capacity_ < 4096 ? capacity_ : 4096);
    registerJournal(this);
}

Journal::~Journal()
{
    unregisterJournal(this);
}

void
Journal::record(JournalKind kind, JournalCause cause, int64_t a,
                int64_t b, int64_t c, int64_t d, int64_t e)
{
    XMIG_ASSERT(kind < JournalKind::kCount &&
                    cause < JournalCause::kCount,
                "journal record with out-of-range kind/cause");
    JournalEvent event;
    event.seq = recorded_;
    event.time = clock_;
    event.arg[0] = a;
    event.arg[1] = b;
    event.arg[2] = c;
    event.arg[3] = d;
    event.arg[4] = e;
    event.kind = kind;
    event.cause = cause;
    if (ring_.size() < capacity_) {
        ring_.push_back(event);
    } else {
        // Ring full: overwrite the oldest slot in place.
        ring_[recorded_ % capacity_] = event;
    }
    ++recorded_;
}

size_t
Journal::size() const
{
    return ring_.size();
}

uint64_t
Journal::dropped() const
{
    return recorded_ - ring_.size();
}

const JournalEvent &
Journal::eventAt(size_t i) const
{
    XMIG_ASSERT(i < ring_.size(), "journal event %zu out of %zu", i,
                ring_.size());
    if (recorded_ <= capacity_)
        return ring_[i];
    // Oldest surviving event sits at the next overwrite slot.
    return ring_[(recorded_ + i) % capacity_];
}

void
Journal::clear()
{
    ring_.clear();
    recorded_ = 0;
}

void
Journal::setDumpPath(std::string path)
{
    dumpPath_ = std::move(path);
}

bool
Journal::dumpNow(const char *reason) const
{
    if (dumpPath_.empty())
        return false;
    std::string text = renderJsonl();
    text += "{\"incident\":\"";
    text += jsonEscape(reason != nullptr ? reason : "unknown");
    text += "\"}\n";
    return writeText(dumpPath_, text, "journal dump");
}

std::string
Journal::renderJsonl() const
{
    std::string out;
    out.reserve(128 + size() * 96);
    out += "{\"journal\":\"xmig-lens\",\"capacity\":";
    out += jsonNumber(static_cast<double>(capacity_));
    out += ",\"recorded\":";
    out += jsonNumber(static_cast<double>(recorded_));
    out += ",\"dropped\":";
    out += jsonNumber(static_cast<double>(dropped()));
    out += "}\n";
    for (size_t i = 0; i < size(); ++i) {
        const JournalEvent &event = eventAt(i);
        out += "{\"seq\":";
        out += jsonNumber(static_cast<double>(event.seq));
        out += ",\"t\":";
        out += jsonNumber(static_cast<double>(event.time));
        out += ",\"kind\":\"";
        out += journalKindName(event.kind);
        out += "\",\"cause\":\"";
        out += journalCauseName(event.cause);
        out += "\"";
        const char *const *names = journalArgNames(event.kind);
        for (size_t a = 0; a < 5 && names[a] != nullptr; ++a) {
            out += ",\"";
            out += names[a];
            out += "\":";
            out += jsonNumber(static_cast<double>(event.arg[a]));
        }
        out += "}\n";
    }
    return out;
}

bool
Journal::writeJsonl(const std::string &path) const
{
    return writeText(path, renderJsonl(), "journal");
}

std::string
Journal::renderChromeTrace() const
{
    std::string out;
    out.reserve(256 + size() * 160);
    // pid 0 is the simulated timeline; ts counts post-L1 references.
    out += "{\"traceEvents\":[\n"
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
           "\"tid\":0,\"args\":{\"name\":\"simulated time "
           "(references)\"}}";
    int64_t repairs = 0;
    for (size_t i = 0; i < size(); ++i) {
        const JournalEvent &event = eventAt(i);
        const std::string ts = jsonNumber(static_cast<double>(event.time));
        out += ",\n{\"name\":\"";
        out += journalKindName(event.kind);
        out += "\",\"cat\":\"";
        out += journalCauseName(event.cause);
        out += "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
        out += ts;
        out += ",\"pid\":0,\"tid\":0";
        const char *const *names = journalArgNames(event.kind);
        if (names[0] != nullptr) {
            out += ",\"args\":{";
            for (size_t a = 0; a < 5 && names[a] != nullptr; ++a) {
                out += a == 0 ? "\"" : ",\"";
                out += names[a];
                out += "\":";
                out += jsonNumber(static_cast<double>(event.arg[a]));
            }
            out += "}";
        }
        out += "}";

        // Counter tracks derived from the instants: the active core
        // after each (forced) migration — arg 1 is "to" for both —
        // and the running total of scrub repairs.
        const char *counter = nullptr;
        int64_t value = 0;
        if (event.kind == JournalKind::Migration ||
            event.kind == JournalKind::ForcedMigration) {
            counter = "active_core";
            value = event.arg[1];
        } else if (event.kind == JournalKind::CoherenceScrub) {
            repairs += event.arg[0];
            counter = "coherence_repairs";
            value = repairs;
        }
        if (counter != nullptr) {
            out += ",\n{\"name\":\"";
            out += counter;
            out += "\",\"cat\":\"machine\",\"ph\":\"C\",\"ts\":";
            out += ts;
            out += ",\"pid\":0,\"tid\":0,\"args\":{\"value\":";
            out += jsonNumber(static_cast<double>(value));
            out += "}}";
        }
    }
    out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
           "\"tool\":\"xmig-lens\",\"capacity\":";
    out += jsonNumber(static_cast<double>(capacity_));
    out += ",\"recorded\":";
    out += jsonNumber(static_cast<double>(recorded_));
    out += ",\"dropped\":";
    out += jsonNumber(static_cast<double>(dropped()));
    out += "}}\n";
    return out;
}

bool
Journal::writeChromeTrace(const std::string &path) const
{
    return writeText(path, renderChromeTrace(), "trace");
}

} // namespace xmig::obs
