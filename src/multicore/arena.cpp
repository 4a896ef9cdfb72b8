#include "multicore/arena.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <exception>
#include <utility>

#include "mem/trace.hpp"
#include "util/contracts.hpp"
#include "workloads/registry.hpp"

#ifdef __has_feature
#define XMIG_HAS_FEATURE(x) __has_feature(x)
#else
#define XMIG_HAS_FEATURE(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || XMIG_HAS_FEATURE(address_sanitizer)
#define XMIG_FIBER_ASAN 1
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__) || XMIG_HAS_FEATURE(thread_sanitizer)
#define XMIG_FIBER_TSAN 1
#include <sanitizer/tsan_interface.h>
#endif

namespace xmig {

namespace {

/** Thrown inside a tenant fiber when the arena abandons its stream. */
struct StreamCancelled
{
};

/**
 * A stackful coroutine on glibc makecontext/swapcontext, run on the
 * thread that resumes it. resume() enters the body (the first call
 * maps the stack and starts it) and returns when the body calls
 * suspend() or returns; an exception escaping the body is rethrown
 * from resume(). Every switch is annotated for ASan (so it
 * tracks which stack is live) and TSan (so it sees one logical
 * thread per fiber), which keeps the sanitizer CI jobs meaningful.
 */
class Fiber
{
  public:
    /** Reserve per stack, the same as a default pthread stack. */
    static constexpr size_t kStackBytes = 8 * 1024 * 1024;

    using Body = void (*)(void *arg);

    Fiber(Body body, void *arg) : body_(body), arg_(arg) {}

    ~Fiber()
    {
        XMIG_ASSERT(!started_ || finished_,
                    "destroying a fiber that is still suspended");
#ifdef XMIG_FIBER_TSAN
        if (tsanFiber_ != nullptr)
            __tsan_destroy_fiber(tsanFiber_);
#endif
        if (map_ != nullptr)
            munmap(map_, mapBytes_);
    }

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    bool started() const { return started_; }
    bool finished() const { return finished_; }

    /** Scheduler side: run the body until it suspends or returns. */
    void
    resume()
    {
        XMIG_ASSERT(!finished_, "resuming a finished fiber");
        if (!started_)
            start();
#ifdef XMIG_FIBER_TSAN
        callerTsan_ = __tsan_get_current_fiber();
        __tsan_switch_to_fiber(tsanFiber_, 0);
#endif
#ifdef XMIG_FIBER_ASAN
        void *fakeStack = nullptr;
        __sanitizer_start_switch_fiber(&fakeStack, stack_, kStackBytes);
#endif
        swapcontext(&caller_, &context_);
#ifdef XMIG_FIBER_ASAN
        __sanitizer_finish_switch_fiber(fakeStack, nullptr, nullptr);
#endif
        if (error_)
            std::rethrow_exception(std::exchange(error_, nullptr));
    }

    /** Fiber side: switch back to whoever called resume(). */
    void
    suspend()
    {
        switchToCaller(false);
    }

  private:
    void
    start()
    {
        // MAP_NORESERVE: only the pages the body touches count
        // toward RSS. The lowest page is a PROT_NONE guard, so an
        // overflow faults instead of scribbling on the heap.
        const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
        mapBytes_ = kStackBytes + page;
        void *map = mmap(nullptr, mapBytes_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE |
                             MAP_STACK,
                         -1, 0);
        XMIG_ASSERT(map != MAP_FAILED, "cannot map a %zu-byte fiber stack",
                    mapBytes_);
        map_ = map;
        const int guarded = mprotect(map_, page, PROT_NONE);
        XMIG_ASSERT(guarded == 0,
                    "cannot protect the fiber stack guard page");
        stack_ = static_cast<char *>(map_) + page;
        const int got = getcontext(&context_);
        XMIG_ASSERT(got == 0, "getcontext failed");
        context_.uc_stack.ss_sp = stack_;
        context_.uc_stack.ss_size = kStackBytes;
        context_.uc_link = nullptr;
        starting_ = this;
        makecontext(&context_, &Fiber::trampoline, 0);
#ifdef XMIG_FIBER_TSAN
        tsanFiber_ = __tsan_create_fiber(0);
#endif
        started_ = true;
    }

    /** Entry point of every fiber; never returns. */
    static void
    trampoline()
    {
        Fiber *self = starting_;
#ifdef XMIG_FIBER_ASAN
        __sanitizer_finish_switch_fiber(nullptr, &self->callerStack_,
                                        &self->callerStackBytes_);
#endif
        // Unwinding must stop here: the frame below is glibc's.
        try {
            self->body_(self->arg_);
        } catch (...) {
            self->error_ = std::current_exception();
        }
        self->finished_ = true;
        self->switchToCaller(true);
    }

    void
    switchToCaller(bool exiting)
    {
#ifdef XMIG_FIBER_TSAN
        __tsan_switch_to_fiber(callerTsan_, 0);
#endif
#ifdef XMIG_FIBER_ASAN
        // A null save slot tells ASan this stack is gone for good.
        void *fakeStack = nullptr;
        __sanitizer_start_switch_fiber(exiting ? nullptr : &fakeStack,
                                       callerStack_, callerStackBytes_);
#else
        (void)exiting;
#endif
        swapcontext(&context_, &caller_);
#ifdef XMIG_FIBER_ASAN
        __sanitizer_finish_switch_fiber(fakeStack, &callerStack_,
                                        &callerStackBytes_);
#endif
    }

    /** The fiber being started on this thread (trampoline's argument). */
    static thread_local Fiber *starting_;

    Body body_;
    void *arg_;
    ucontext_t context_{};
    ucontext_t caller_{};
    void *map_ = nullptr;
    size_t mapBytes_ = 0;
    char *stack_ = nullptr;
    std::exception_ptr error_; ///< escaped the body, for resume()
    bool started_ = false;
    bool finished_ = false;
#ifdef XMIG_FIBER_ASAN
    const void *callerStack_ = nullptr;
    size_t callerStackBytes_ = 0;
#endif
#ifdef XMIG_FIBER_TSAN
    void *tsanFiber_ = nullptr;
    void *callerTsan_ = nullptr;
#endif
};

thread_local Fiber *Fiber::starting_ = nullptr;

/**
 * Probe-side sink: offsets references into a machine in K-reference
 * accessBatch() chunks, and resets the machine's counters once
 * `warmup_instructions` have executed so the probe measures
 * steady-state behavior (cold compulsory misses would otherwise
 * dominate a short probe and misclassify every tenant as
 * cache-hungry). The chunk is cut right after the reference that
 * completes the warm-up, so the reset lands on it. The caller must
 * flush() after the workload ends.
 */
class ProbeSink final : public RefSink
{
  public:
    ProbeSink(MigrationMachine &machine, uint64_t address_offset,
              uint64_t warmup_instructions)
        : machine_(machine),
          offset_(address_offset),
          warmup_(warmup_instructions)
    {
    }

    void
    access(const MemRef &ref) override
    {
        MemRef &shifted = buf_[count_++];
        shifted = ref;
        shifted.addr += offset_;
        if (ref.isIfetch())
            ++instructions_;
        if (!warmedUp_ && instructions_ >= warmup_) {
            flush();
            machine_.resetStats();
            warmedUp_ = true;
        } else if (count_ == MigrationMachine::kBatchRefs) {
            flush();
        }
    }

    void
    flush()
    {
        machine_.accessBatch(buf_, count_);
        count_ = 0;
    }

  private:
    MigrationMachine &machine_;
    uint64_t offset_;
    uint64_t warmup_;
    uint64_t instructions_ = 0;
    bool warmedUp_ = false;
    MemRef buf_[MigrationMachine::kBatchRefs];
    size_t count_ = 0;
};

} // namespace

const char *
arenaModeName(ArenaMode mode)
{
    switch (mode) {
      case ArenaMode::Migration:
        return "migration";
      case ArenaMode::Throughput:
        return "throughput";
    }
    return "unknown";
}

/**
 * One tenant: its machine, and its push-model workload running on a
 * fiber. The session is the workload's sink: it offsets each
 * reference into the tenant's address range, buffers 64-ref chunks
 * and feeds each full chunk to the machine, suspending the fiber the
 * moment the turn's budget runs out.
 */
struct TenantArena::Session : RefSink
{
    static constexpr size_t kChunkRefs = MigrationMachine::kBatchRefs;

    unsigned tenant = 0;
    TenantSpec spec;
    unsigned cluster = 0;
    uint64_t addressOffset = 0; ///< tenant * kTenantAddressStride
    std::unique_ptr<MigrationMachine> machine;
    Fiber fiber{&Session::runStream, this};
    std::array<MemRef, kChunkRefs> chunk;
    uint32_t chunkCount = 0;
    uint64_t budget = 0;    ///< refs left in the current turn
    bool cancelled = false; ///< arena abandoned the stream
    bool admitted = false;
    obs::Histogram turnCycles;
    double cycles = 0;      ///< accumulated stall-model cycles
    double startCycles = 0; ///< throughput mode: slot start offset
    uint64_t turns = 0;

    /** All references consumed (the workload returned). */
    bool drained() const { return fiber.finished(); }

    void
    access(const MemRef &ref) override
    {
        MemRef &slot = chunk[chunkCount++];
        slot = ref;
        slot.addr += addressOffset;
        if (chunkCount == kChunkRefs)
            feedChunk();
    }

    /**
     * Feed the buffered chunk, split at every point the budget runs
     * out. The fiber suspends as soon as the budget reaches 0, even
     * on the chunk's last reference, so a stream ending exactly on a
     * quantum boundary is only seen to end on the next turn.
     */
    void
    feedChunk()
    {
        uint32_t pos = 0;
        while (pos < chunkCount) {
            const uint64_t n =
                std::min<uint64_t>(chunkCount - pos, budget);
            machine->accessBatch(&chunk[pos], static_cast<size_t>(n));
            pos += static_cast<uint32_t>(n);
            budget -= n;
            if (budget == 0) {
                fiber.suspend();
                if (cancelled)
                    throw StreamCancelled{};
            }
        }
        chunkCount = 0;
    }

    /** Fiber body: the tenant's whole reference stream. */
    static void
    runStream(void *arg)
    {
        Session &session = *static_cast<Session *>(arg);
        try {
            std::unique_ptr<Workload> workload =
                makeWorkload(session.spec.benchmark);
            workload->run(session, session.spec.instructions,
                          session.spec.seed);
            session.feedChunk();
        } catch (const StreamCancelled &) {
            // Arena teardown unwound the workload; nothing to report.
        }
    }
};

TenantArena::TenantArena(ArenaConfig config) : config_(std::move(config))
{
    XMIG_ASSERT(!config_.tenants.empty(),
                "an arena needs at least one tenant");
    XMIG_ASSERT(config_.sharedL3Bytes > 0 && config_.sharedL3Ways > 0,
                "arena shared L3 must be finite (got %llu bytes)",
                (unsigned long long)config_.sharedL3Bytes);
    XMIG_ASSERT(config_.machine.faultPlan.empty(),
                "fault plans are per-machine; arena tenants do not "
                "support them yet");
    probeTenants();
    buildSharedL3();
    buildSessions();
}

TenantArena::~TenantArena()
{
    for (auto &session : sessions_) {
        // A suspended stream (an exception unwound the schedule)
        // is resumed once more to throw StreamCancelled inside the
        // fiber, which destroys its workload before the stack goes.
        if (session->fiber.started() && !session->fiber.finished()) {
            session->cancelled = true;
            session->fiber.resume();
        }
    }
}

void
TenantArena::attachJournal(obs::Journal *journal)
{
    journal_ = journal;
}

void
TenantArena::probeTenants()
{
    // Solo baseline: each tenant runs alone for a short, fixed budget
    // on a machine with the *whole* shared L3 to itself. The probe
    // yields the appetite score for clustering/co-location and the
    // per-instruction solo cost that slowdowns are measured against.
    probes_.reserve(config_.tenants.size());
    for (size_t i = 0; i < config_.tenants.size(); ++i) {
        const TenantSpec &spec = config_.tenants[i];
        MachineConfig mc = config_.machine;
        mc.numCores = config_.mode == ArenaMode::Migration
                          ? config_.machine.numCores
                          : 1;
        mc.sharedL3 = nullptr;
        mc.l3Bytes = config_.sharedL3Bytes;
        mc.l3Ways = config_.sharedL3Ways;
        MigrationMachine machine(mc);
        ProbeSink sink(machine,
                       static_cast<uint64_t>(i) *
                           kTenantAddressStride,
                       config_.probeInstructions / 2);
        std::unique_ptr<Workload> workload =
            makeWorkload(spec.benchmark);
        workload->run(sink, config_.probeInstructions, spec.seed);
        sink.flush();
        const MachineStats &s = machine.stats();
        TenantProbe probe;
        probe.instructions = s.instructions;
        probe.refs = s.refs;
        probe.l2Misses = s.l2Misses;
        probe.l3Misses = s.l3Misses;
        probe.soloCycles = turnCost(MachineStats{}, s);
        XMIG_AUDIT(probe.instructions > 0,
                   "tenant %zu probe executed no instructions", i);
        probes_.push_back(probe);
    }
}

void
TenantArena::buildSharedL3()
{
    if (config_.l3Policy == L3Policy::WayClustered) {
        clusters_ = clusterTenants(probes_, config_.sharedL3Ways);
    } else {
        ClusterSpec all;
        all.ways = config_.sharedL3Ways;
        for (unsigned i = 0; i < probes_.size(); ++i)
            all.tenants.push_back(i);
        clusters_ = {all};
    }
    XMIG_ASSERT(!clusters_.empty(), "L3 clustering returned nothing");
    const uint64_t bytesPerWay =
        config_.sharedL3Bytes / config_.sharedL3Ways;
    for (const ClusterSpec &cluster : clusters_) {
        CacheConfig c;
        c.capacityBytes =
            std::max<uint64_t>(bytesPerWay * cluster.ways,
                               config_.machine.lineBytes);
        c.ways = std::max(1u, cluster.ways);
        c.lineBytes = config_.machine.lineBytes;
        c.write = WritePolicy::WriteBackAllocate;
        c.skewed = false;
        c.seed = 99;
        sharedL3_.push_back(std::make_unique<Cache>(c));
    }
}

void
TenantArena::buildSessions()
{
    sessions_.reserve(config_.tenants.size());
    for (size_t i = 0; i < config_.tenants.size(); ++i) {
        auto session = std::make_unique<Session>();
        session->tenant = static_cast<unsigned>(i);
        session->addressOffset =
            static_cast<uint64_t>(i) * kTenantAddressStride;
        session->spec = config_.tenants[i];
        for (size_t k = 0; k < clusters_.size(); ++k) {
            const auto &members = clusters_[k].tenants;
            if (std::find(members.begin(), members.end(),
                          static_cast<unsigned>(i)) != members.end())
                session->cluster = static_cast<unsigned>(k);
        }
        MachineConfig mc = config_.machine;
        mc.numCores = config_.mode == ArenaMode::Migration
                          ? config_.machine.numCores
                          : 1;
        mc.l3Bytes = 0;
        mc.sharedL3 = sharedL3_[session->cluster].get();
        session->machine = std::make_unique<MigrationMachine>(mc);
        XMIG_ASSERT(session->machine->sharesL3(),
                    "tenant %zu machine did not adopt the shared L3",
                    i);
        sessions_.push_back(std::move(session));
    }
}

double
TenantArena::turnCost(const MachineStats &before,
                const MachineStats &after) const
{
    XMIG_AUDIT(after.refs >= before.refs &&
                   after.instructions >= before.instructions,
               "machine counters ran backwards across a turn");
    const double cycles = estimatedCycles(
        after.instructions - before.instructions,
        after.l2Misses - before.l2Misses,
        after.migrations - before.migrations,
        config_.timing.stall);
    return cycles +
           config_.timing.memPenalty *
               static_cast<double>(after.l3Misses - before.l3Misses);
}

ArenaResult
TenantArena::run()
{
    XMIG_ASSERT(!ran_, "TenantArena::run() is one-shot");
    ran_ = true;
    // Journal the partition choice first: the journal is attached
    // after construction, so the clustering decision is replayed
    // here, at the head of the schedule's timeline.
    for (size_t k = 0; k < clusters_.size(); ++k) {
        for (unsigned tenant : clusters_[k].tenants) {
            XMIG_JOURNAL(journal_, obs::JournalKind::TenantPartition,
                         obs::JournalCause::Tenant, tenant,
                         static_cast<int64_t>(k),
                         clusters_[k].ways);
        }
    }
    TenantScheduler sched(config_.sched, probes_);
    // Fill the initial resident set in co-location order.
    for (unsigned t = sched.admitNext();
         t != TenantScheduler::kNone; t = sched.admitNext()) {
        sessions_[t]->admitted = true;
        XMIG_JOURNAL(journal_, obs::JournalKind::TenantAdmit,
                     obs::JournalCause::Tenant, t,
                     static_cast<int64_t>(sched.residentCount() - 1),
                     static_cast<int64_t>(
                         sched.colocationScore(t) * 1000.0));
    }
    const double makespan =
        config_.mode == ArenaMode::Migration
            ? runMigrationSchedule(sched)
            : runThroughputSchedule(sched);
    XMIG_ASSERT(sched.allFinished(),
                "arena schedule ended with tenants outstanding");

    ArenaResult result;
    result.makespanCycles = makespan;
    std::vector<double> slowdowns;
    double totalInstructions = 0;
    for (const auto &sessionPtr : sessions_) {
        const Session &session = *sessionPtr;
        const MachineStats &s = session.machine->stats();
        const TenantProbe &probe = probes_[session.tenant];
        TenantResult tr;
        tr.benchmark = session.spec.benchmark;
        tr.instructions = s.instructions;
        tr.refs = s.refs;
        tr.l2Misses = s.l2Misses;
        tr.l3Accesses = s.l3Accesses;
        tr.l3Misses = s.l3Misses;
        tr.migrations = s.migrations;
        tr.turns = session.turns;
        tr.cycles = session.cycles;
        const double soloCpi =
            probe.instructions > 0
                ? probe.soloCycles /
                      static_cast<double>(probe.instructions)
                : config_.timing.stall.baseCpi;
        tr.soloCycles =
            soloCpi * static_cast<double>(s.instructions);
        tr.slowdown = tr.soloCycles > 0
                          ? tr.cycles / tr.soloCycles
                          : 1.0;
        tr.p50TurnCycles = session.turnCycles.percentile(50.0);
        tr.p95TurnCycles = session.turnCycles.percentile(95.0);
        tr.p99TurnCycles = session.turnCycles.percentile(99.0);
        tr.cluster = session.cluster;
        tr.clusterWays = clusters_[session.cluster].ways;
        slowdowns.push_back(tr.slowdown);
        totalInstructions += static_cast<double>(s.instructions);
        if (tr.cycles > 0)
            result.weightedSpeedup += tr.soloCycles / tr.cycles;
        result.tenants.push_back(std::move(tr));
    }
    result.aggregateIpc =
        makespan > 0 ? totalInstructions / makespan : 0.0;
    result.unfairness = xmig::unfairness(slowdowns);
    result.jainFairness = jainFairnessIndex(slowdowns);
    for (const auto &cache : sharedL3_) {
        result.sharedL3Accesses += cache->stats().accesses;
        result.sharedL3Misses += cache->stats().misses;
    }
    return result;
}

/**
 * Feed up to `budget` references from the session's stream into its
 * machine: resume the tenant's fiber (starting it on the first turn)
 * until it spends the budget or its workload returns. Returns the
 * number actually fed (short only when the stream ends).
 */
uint64_t
TenantArena::feedQuantum(Session &session, uint64_t budget)
{
    if (budget == 0)
        return 0;
    session.budget = budget;
    session.fiber.resume();
    XMIG_ASSERT(session.budget <= budget &&
                    (session.budget == 0 || session.drained()),
                "tenant %u fiber suspended with %llu of %llu refs "
                "unspent",
                session.tenant,
                static_cast<unsigned long long>(session.budget),
                static_cast<unsigned long long>(budget));
    return budget - session.budget;
}

/**
 * One scheduling turn: feed the tenant its budget, account the
 * stall-model cost, journal the decision, retire the tenant if its
 * stream drained. `serial_time` selects the makespan arithmetic:
 * migration mode time-shares the chip (makespan = sum of turn
 * costs), throughput mode space-shares it (makespan = latest
 * per-slot completion).
 */
void
TenantArena::runTurn(TenantScheduler &sched, unsigned tenant,
               double *makespan, bool serial_time)
{
    Session &session = *sessions_[tenant];
    XMIG_ASSERT(session.admitted,
                "turn granted to unadmitted tenant %u", tenant);
    const uint64_t budget = sched.turnBudget(tenant);
    const MachineStats before = session.machine->stats();
    const uint64_t fed = feedQuantum(session, budget);
    const double cost = turnCost(before, session.machine->stats());
    session.cycles += cost;
    session.turns += 1;
    session.turnCycles.record(static_cast<uint64_t>(cost));
    if (serial_time)
        *makespan += cost;
    refClock_ += fed;
    XMIG_JOURNAL_CLOCK(journal_, refClock_);
    XMIG_JOURNAL(journal_, obs::JournalKind::TenantTurn,
                 obs::JournalCause::Tenant, tenant,
                 static_cast<int64_t>(fed),
                 static_cast<int64_t>(cost));
    sched.onTurnEnd(tenant, fed);
    if (session.drained()) {
        const double completion =
            serial_time ? *makespan
                        : session.startCycles + session.cycles;
        if (!serial_time)
            *makespan = std::max(*makespan, completion);
        retireTenant(sched, tenant, completion);
    }
}

double
TenantArena::runMigrationSchedule(TenantScheduler &sched)
{
    // Migration mode: exactly one tenant runs at a time, roaming the
    // aggregate L2 with its own affinity controller.
    double makespan = 0.0;
    while (!sched.allFinished()) {
        const unsigned t = sched.nextTurn();
        XMIG_ASSERT(t != TenantScheduler::kNone,
                    "unfinished schedule granted no turn");
        runTurn(sched, t, &makespan, /*serial_time=*/true);
    }
    return makespan;
}

double
TenantArena::runThroughputSchedule(TenantScheduler &sched)
{
    // Throughput mode: residents advance concurrently in simulated
    // time on pinned cores. The round-robin quantum interleave is
    // what arbitrates shared-L3 contention — a pure function of the
    // schedule, hence deterministic at any --jobs.
    double makespan = 0.0;
    while (!sched.allFinished()) {
        const unsigned t = sched.nextTurn();
        XMIG_ASSERT(t != TenantScheduler::kNone,
                    "unfinished schedule granted no turn");
        runTurn(sched, t, &makespan, /*serial_time=*/false);
    }
    return makespan;
}

void
TenantArena::retireTenant(TenantScheduler &sched, unsigned tenant,
                    double now_cycles)
{
    Session &session = *sessions_[tenant];
    XMIG_ASSERT(session.drained(),
                "retiring tenant %u with stream outstanding", tenant);
    sched.onFinish(tenant);
    XMIG_JOURNAL(journal_, obs::JournalKind::TenantFinish,
                 obs::JournalCause::Tenant, tenant,
                 static_cast<int64_t>(session.machine->stats().refs),
                 static_cast<int64_t>(session.cycles));
    const unsigned next = sched.admitNext();
    if (next != TenantScheduler::kNone) {
        Session &admitted = *sessions_[next];
        admitted.admitted = true;
        // The newcomer inherits the freed slot: in throughput mode
        // its virtual clock starts at the finisher's completion.
        admitted.startCycles = now_cycles;
        XMIG_JOURNAL(journal_, obs::JournalKind::TenantAdmit,
                     obs::JournalCause::Tenant, next,
                     static_cast<int64_t>(sched.residentCount() - 1),
                     static_cast<int64_t>(
                         sched.colocationScore(next) * 1000.0));
    }
}

void
TenantArena::registerMetrics(obs::MetricsRegistry &registry,
                       const std::string &prefix) const
{
    for (const auto &sessionPtr : sessions_) {
        const Session &session = *sessionPtr;
        const std::string base =
            prefix + ".tenant" + std::to_string(session.tenant);
        session.machine->registerMetrics(registry, base);
        registry.addHistogram(base + ".turn_cycles",
                              &session.turnCycles);
    }
    for (size_t k = 0; k < sharedL3_.size(); ++k) {
        registerCacheMetrics(registry,
                             prefix + ".l3.cluster" +
                                 std::to_string(k),
                             *sharedL3_[k]);
    }
}

} // namespace xmig
