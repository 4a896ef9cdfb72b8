/**
 * @file
 * xmig_bench: runs one benchmark workload and prints one JSON
 * report on stdout. run.py builds this binary, checks the report
 * against the golden digests and prints the benchmark's result line;
 * README.md documents the workloads and metrics.
 *
 *   xmig_bench --workload table2|storm|figure1_pairs [--seed N]
 *              [--seconds S] [--trace 0|1] [--instr N]
 *              [--check-reference]
 *
 * A *pass* runs every cell of the workload once, one cell after
 * another on this thread. Untraced runs repeat whole passes until the
 * time budget is spent and report each cell's best host time.
 * Traced runs alternate untraced and traced passes: a traced pass
 * times every call into a layer's public entry points (spans kept in
 * memory, summarized when the run ends), and the stream prefixes the
 * first traced pass records are replayed afterwards through the
 * per-layer entry points (L1 filter, L2 cache, controller, affinity
 * store). Simulated counters must be identical in every pass, traced
 * or not.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/l1_filter.hpp"
#include "core/migration_controller.hpp"
#include "core/soa_oe_store.hpp"
#include "multicore/arena.hpp"
#include "multicore/cost_model.hpp"
#include "multicore/machine.hpp"
#include "sim/quadcore.hpp"
#include "util/hashing.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

namespace {

// ---------------------------------------------------------------------------
// Host clocks
// ---------------------------------------------------------------------------

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

rusage
usage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru;
}

/** CPU time of the whole process (all threads), in ns. */
int64_t
cpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/** Wall and CPU clocks read together. */
struct Stamp
{
    int64_t wall = nowNs();
    int64_t cpu = cpuNs();
};

/** Host time of one timed stretch of a cell's feed. */
struct Segment
{
    double wallNs = 0.0;
    double cpuNs = 0.0;
};

Segment
segmentBetween(const Stamp &start, const Stamp &end)
{
    return {static_cast<double>(end.wall - start.wall),
            static_cast<double>(end.cpu - start.cpu)};
}

/**
 * Peak resident set of this process image, in MiB. VmHWM rather than
 * ru_maxrss: the latter survives exec() and would report the parent
 * that spawned the benchmark.
 */
double
peakRssMiB()
{
    double kib = static_cast<double>(usage().ru_maxrss);
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f)) {
            unsigned long long v = 0;
            if (std::sscanf(line, "VmHWM: %llu kB", &v) == 1)
                kib = static_cast<double>(v);
        }
        std::fclose(f);
    }
    return kib / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile (p in [0, 100]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
geomean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += std::log(std::max(x, 1e-9));
    return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

std::string
format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

std::string
format(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

std::string
num(double v)
{
    return std::isfinite(v) ? format("%.17g", v) : "0";
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/** One cell: a Table-1 / storm kernel, or one Figure-1 (mix, arm). */
struct Cell
{
    std::string name;
    std::vector<std::string> benches; ///< the kernel, or the tenants
    bool arena = false;
    ArenaMode mode = ArenaMode::Migration;
    L3Policy policy = L3Policy::Unpartitioned;
};

struct WorkloadSpec
{
    std::string name;
    uint64_t instructions = 0; ///< per kernel / per tenant
    std::vector<Cell> cells;
};

/** Paper Table 2 "ratio" column (4xL2 misses / L2 misses). */
const std::map<std::string, double> kPaperRatio = {
    {"164.gzip", 1.01}, {"171.swim", 1.00},   {"172.mgrid", 1.00},
    {"175.vpr", 1.60},  {"176.gcc", 0.95},    {"179.art", 0.03},
    {"181.mcf", 0.67},  {"186.crafty", 1.13}, {"188.ammp", 0.17},
    {"197.parser", 1.00}, {"255.vortex", 1.10}, {"256.bzip2", 0.35},
    {"300.twolf", 1.00}, {"bh", 2.16},        {"bisort", 1.08},
    {"em3d", 0.14},     {"health", 0.14},     {"mst", 1.00},
};

/** bench_figure1's 2-tenant mixes (the 4-tenant quads need 5 threads). */
const std::vector<std::pair<const char *, std::vector<std::string>>>
    kPairs = {
        {"art+mcf", {"179.art", "181.mcf"}},
        {"art+ammp", {"179.art", "188.ammp"}},
        {"em3d+health", {"em3d", "health"}},
        {"mcf+gzip", {"181.mcf", "164.gzip"}},
};

constexpr size_t kArms = 3; ///< migration, throughput, throughput+clusters

bool
makeSpec(const std::string &name, uint64_t instr_override,
         WorkloadSpec &spec)
{
    spec.name = name;
    if (name == "table2" || name == "storm") {
        spec.instructions = name == "table2" ? 2'000'000 : 6'000'000;
        const auto &kernels = name == "table2" ? allWorkloadNames()
                                               : adversarialWorkloadNames();
        for (const std::string &k : kernels)
            spec.cells.push_back({k, {k}});
    } else if (name == "figure1_pairs") {
        spec.instructions = 1'500'000;
        const ArenaMode modes[kArms] = {ArenaMode::Migration,
                                        ArenaMode::Throughput,
                                        ArenaMode::Throughput};
        const L3Policy policies[kArms] = {L3Policy::Unpartitioned,
                                          L3Policy::Unpartitioned,
                                          L3Policy::WayClustered};
        for (const auto &[mix, tenants] : kPairs) {
            for (size_t a = 0; a < kArms; ++a) {
                Cell c;
                c.name = std::string(mix) + "/" + arenaModeName(modes[a]) +
                         "/" + l3PolicyName(policies[a]);
                c.benches = tenants;
                c.arena = true;
                c.mode = modes[a];
                c.policy = policies[a];
                spec.cells.push_back(c);
            }
        }
    } else {
        return false;
    }
    if (instr_override > 0)
        spec.instructions = instr_override;
    return true;
}

/** bench_figure1's arena settings for one cell. */
ArenaConfig
arenaConfig(const Cell &cell, uint64_t instructions, uint64_t seed)
{
    ArenaConfig cfg;
    cfg.mode = cell.mode;
    cfg.l3Policy = cell.policy;
    for (const std::string &b : cell.benches)
        cfg.tenants.push_back({b, instructions, seed});
    cfg.sharedL3Bytes = 512 * 1024;
    cfg.sched.maxResident = 4;
    cfg.sched.quantumRefs =
        cell.mode == ArenaMode::Migration ? 1'048'576 : 4096;
    cfg.probeInstructions = std::max<uint64_t>(100'000, instructions / 10);
    return cfg;
}

// ---------------------------------------------------------------------------
// Spans (traced passes only)
// ---------------------------------------------------------------------------

/** Layer time accumulated over a run's traced passes. */
struct Spans
{
    int64_t setupNs = 0;     ///< machine / arena constructors
    int64_t feedNs = 0;      ///< Workload::run including the machines
    int64_t baselineNs = 0;  ///< 1-core accessBatch
    int64_t migrationNs = 0; ///< 4-core accessBatch
    uint64_t refs = 0;       ///< references generated
    uint64_t baselineRefs = 0;
    uint64_t migrationRefs = 0;
    std::vector<double> chunkNs; ///< per 4-core accessBatch call
    int64_t arenaRunNs = 0;      ///< TenantArena::run
    uint64_t passes = 0;
};

constexpr size_t kPrefixRefs = 1u << 18; ///< recorded per cell for replays

/** Chunks per timed feed segment (32 Ki references). */
constexpr uint64_t kSegmentChunks = 512;

/**
 * runQuadcore's batched feed (BatchFeedTee without warm-up): buffers
 * K references and drives the machines through accessBatch(). Either
 * machine may be absent. Every kSegmentChunks chunks it stamps the
 * clock, so host time can be compared segment by segment across
 * passes. With `spans` set, each accessBatch call is timed and the
 * first kPrefixRefs references land in `prefix`.
 */
class BatchFeed final : public RefSink
{
  public:
    BatchFeed(MigrationMachine *one_core, MigrationMachine *multi_core,
              Spans *spans, std::vector<MemRef> *prefix)
        : oneCore_(one_core),
          multiCore_(multi_core),
          spans_(spans),
          prefix_(prefix)
    {
    }

    void
    access(const MemRef &ref) override
    {
        buf_[count_++] = ref;
        if (count_ == MigrationMachine::kBatchRefs)
            flush();
    }

    void
    flush()
    {
        if (count_ == 0)
            return;
        if (spans_ == nullptr) {
            if (oneCore_)
                oneCore_->accessBatch(buf_, count_);
            if (multiCore_)
                multiCore_->accessBatch(buf_, count_);
        } else {
            if (prefix_ && prefix_->size() < kPrefixRefs)
                prefix_->insert(prefix_->end(), buf_, buf_ + count_);
            const int64_t t0 = nowNs();
            if (oneCore_)
                oneCore_->accessBatch(buf_, count_);
            const int64_t t1 = nowNs();
            if (multiCore_)
                multiCore_->accessBatch(buf_, count_);
            const int64_t t2 = nowNs();
            if (oneCore_) {
                spans_->baselineNs += t1 - t0;
                spans_->baselineRefs += count_;
            }
            if (multiCore_) {
                spans_->migrationNs += t2 - t1;
                spans_->migrationRefs += count_;
                spans_->chunkNs.push_back(static_cast<double>(t2 - t1));
            }
        }
        count_ = 0;
        if (++chunks_ % kSegmentChunks == 0)
            stamps_.emplace_back();
    }

    /** Host time of each segment between `start` and `end`. */
    std::vector<Segment>
    segments(Stamp start, Stamp end) const
    {
        std::vector<Segment> out;
        for (const Stamp &stamp : stamps_) {
            out.push_back(segmentBetween(start, stamp));
            start = stamp;
        }
        out.push_back(segmentBetween(start, end));
        return out;
    }

  private:
    MigrationMachine *oneCore_;
    MigrationMachine *multiCore_;
    Spans *spans_;
    std::vector<MemRef> *prefix_;
    MemRef buf_[MigrationMachine::kBatchRefs];
    size_t count_ = 0;
    uint64_t chunks_ = 0;
    std::vector<Stamp> stamps_;
};

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

/** Counters of the 4-core machine a cell (or its bare replica) ran. */
struct MultiCoreCounts
{
    uint64_t migrations = 0;
    uint64_t updateBusStores = 0;
    uint64_t l2Forwards = 0;
    uint64_t requests = 0;
    uint64_t filterUpdates = 0;
    uint64_t transitions = 0;
    uint64_t storeLookups = 0;
    uint64_t storeMisses = 0;
    uint64_t storeEvictions = 0;

    void
    add(const MigrationMachine &m)
    {
        migrations += m.stats().migrations;
        updateBusStores += m.stats().updateBusStores;
        l2Forwards += m.stats().l2ToL2Forwards;
        if (const MigrationController *c = m.controller()) {
            requests += c->stats().requests;
            filterUpdates += c->stats().filterUpdates;
            transitions += c->stats().transitions;
            storeLookups += c->store().stats().lookups;
            storeMisses += c->store().stats().misses;
            storeEvictions += c->store().stats().evictions;
        }
    }

    void
    add(const MultiCoreCounts &o)
    {
        migrations += o.migrations;
        updateBusStores += o.updateBusStores;
        l2Forwards += o.l2Forwards;
        requests += o.requests;
        filterUpdates += o.filterUpdates;
        transitions += o.transitions;
        storeLookups += o.storeLookups;
        storeMisses += o.storeMisses;
        storeEvictions += o.storeEvictions;
    }
};

/** One cell's outcome in one pass. */
struct CellRun
{
    int64_t setupNs = 0;
    int64_t feedNs = 0;
    std::vector<Segment> segments; ///< the feed, split
    uint64_t refs = 0;
    uint64_t instructions = 0;
    std::string counters; ///< canonical simulated counters (digested)
    bool coherent = true; ///< countMultiModifiedLines() == 0
    QuadcoreRow row;      ///< machine cells
    ArenaResult arena;    ///< arena cells
    MultiCoreCounts multi;
};

std::string
statsText(const MachineStats &s)
{
    return format("%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu",
                  (unsigned long long)s.instructions,
                  (unsigned long long)s.refs,
                  (unsigned long long)s.l1Misses,
                  (unsigned long long)s.l2Accesses,
                  (unsigned long long)s.l2Misses,
                  (unsigned long long)s.l2ToL2Forwards,
                  (unsigned long long)s.l3Writebacks,
                  (unsigned long long)s.migrations,
                  (unsigned long long)s.updateBusStores);
}

std::string
multiText(const MultiCoreCounts &m)
{
    return format("%llu,%llu,%llu,%llu,%llu,%llu",
                  (unsigned long long)m.requests,
                  (unsigned long long)m.filterUpdates,
                  (unsigned long long)m.transitions,
                  (unsigned long long)m.storeLookups,
                  (unsigned long long)m.storeMisses,
                  (unsigned long long)m.storeEvictions);
}

constexpr int kSetupRepeats = 5;

/** Baseline + 4-core migration machine on one stream (runQuadcore). */
CellRun
runMachineCell(const Cell &cell, uint64_t instructions, uint64_t seed,
               Spans *spans, std::vector<MemRef> *prefix)
{
    std::unique_ptr<Workload> workload = makeWorkload(cell.benches[0]);
    MachineConfig base_cfg;
    base_cfg.numCores = 1;
    MachineConfig mig_cfg;

    // Machine set-up takes ~0.1 ms and its cost depends on whether the
    // allocator hands out fresh pages, so it is timed kSetupRepeats
    // times per cell (best); the cell runs on the last pair built.
    CellRun out;
    std::vector<double> setups;
    std::unique_ptr<MigrationMachine> baselinePtr, migrationPtr;
    for (int r = 0; r < kSetupRepeats; ++r) {
        baselinePtr.reset();
        migrationPtr.reset();
        const int64_t t0 = nowNs();
        baselinePtr = std::make_unique<MigrationMachine>(base_cfg);
        migrationPtr = std::make_unique<MigrationMachine>(mig_cfg);
        setups.push_back(static_cast<double>(nowNs() - t0));
    }
    MigrationMachine &baseline = *baselinePtr;
    MigrationMachine &migration = *migrationPtr;
    const Stamp t1;
    BatchFeed feed(&baseline, &migration, spans, prefix);
    workload->run(feed, instructions, seed);
    feed.flush();
    const Stamp t2;

    out.setupNs =
        static_cast<int64_t>(*std::min_element(setups.begin(), setups.end()));
    out.feedNs = t2.wall - t1.wall;
    out.segments = feed.segments(t1, t2);
    out.refs = migration.stats().refs;
    out.instructions = migration.stats().instructions;
    out.coherent = migration.countMultiModifiedLines() == 0;
    out.multi.add(migration);
    QuadcoreRow &r = out.row;
    r.name = cell.name;
    r.instructions = migration.stats().instructions;
    r.l1Misses = migration.stats().l1Misses;
    r.l2MissesBaseline = baseline.stats().l2Misses;
    r.l2Misses4x = migration.stats().l2Misses;
    r.migrations = migration.stats().migrations;
    r.l2ToL2Forwards = migration.stats().l2ToL2Forwards;
    out.counters = "base:" + statsText(baseline.stats()) +
                   ";mig:" + statsText(migration.stats()) +
                   ";ctl:" + multiText(out.multi);
    if (spans) {
        spans->setupNs += out.setupNs;
        spans->feedNs += out.feedNs;
        spans->refs += out.refs;
    }
    return out;
}

/**
 * The same tenants fed straight through bare machines of the arm's
 * core count (private L3 of the shared L3's size): the reference
 * point for the arena's own overhead.
 */
void
runBareTenants(const Cell &cell, const ArenaConfig &cfg, Spans &spans,
               std::vector<MemRef> *prefix, CellRun &out)
{
    for (size_t i = 0; i < cfg.tenants.size(); ++i) {
        std::unique_ptr<Workload> workload =
            makeWorkload(cfg.tenants[i].benchmark);
        MachineConfig mc = cfg.machine;
        mc.numCores = cell.mode == ArenaMode::Migration ? mc.numCores : 1;
        mc.l3Bytes = cfg.sharedL3Bytes;
        mc.l3Ways = cfg.sharedL3Ways;
        MigrationMachine machine(mc);
        const bool multi = mc.numCores > 1;
        BatchFeed feed(multi ? nullptr : &machine, multi ? &machine : nullptr,
                       &spans, prefix);
        const int64_t t0 = nowNs();
        workload->run(feed, cfg.tenants[i].instructions,
                      cfg.tenants[i].seed);
        feed.flush();
        spans.feedNs += nowNs() - t0;
        spans.refs += machine.stats().refs;
        if (multi) {
            out.coherent =
                out.coherent && machine.countMultiModifiedLines() == 0;
            out.multi.add(machine);
        }
    }
}

CellRun
runArenaCell(const Cell &cell, uint64_t instructions, uint64_t seed,
             Spans *spans, std::vector<MemRef> *prefix)
{
    const ArenaConfig cfg = arenaConfig(cell, instructions, seed);
    CellRun out;
    const int64_t t0 = nowNs();
    ArenaResult r;
    {
        TenantArena arena(cfg);
        const Stamp t1;
        r = arena.run();
        const Stamp t2;
        out.setupNs = t1.wall - t0;
        out.feedNs = t2.wall - t1.wall;
        out.segments = {segmentBetween(t1, t2)};
    }
    std::string text = format("mk:%s;ipc:%s;ws:%s;unf:%s;jain:%s;l3:%llu,%llu",
                              num(r.makespanCycles).c_str(),
                              num(r.aggregateIpc).c_str(),
                              num(r.weightedSpeedup).c_str(),
                              num(r.unfairness).c_str(),
                              num(r.jainFairness).c_str(),
                              (unsigned long long)r.sharedL3Accesses,
                              (unsigned long long)r.sharedL3Misses);
    for (const TenantResult &t : r.tenants) {
        out.refs += t.refs;
        out.instructions += t.instructions;
        text += format(";t:%s,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%s,%s,%u,%u",
                       t.benchmark.c_str(),
                       (unsigned long long)t.instructions,
                       (unsigned long long)t.refs,
                       (unsigned long long)t.l2Misses,
                       (unsigned long long)t.l3Accesses,
                       (unsigned long long)t.l3Misses,
                       (unsigned long long)t.migrations,
                       (unsigned long long)t.turns, num(t.cycles).c_str(),
                       num(t.soloCycles).c_str(), t.cluster,
                       t.clusterWays);
    }
    out.counters = text;
    out.arena = std::move(r);
    if (spans) {
        spans->setupNs += out.setupNs;
        spans->arenaRunNs += out.feedNs;
        runBareTenants(cell, cfg, *spans, prefix, out);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

struct Pass
{
    std::vector<CellRun> cells;
    int cpu = 0;
    bool traced = false;

    int64_t
    feedNs() const
    {
        int64_t s = 0;
        for (const CellRun &c : cells)
            s += c.feedNs;
        return s;
    }

    uint64_t
    refs() const
    {
        uint64_t s = 0;
        for (const CellRun &c : cells)
            s += c.refs;
        return s;
    }

    double
    nsPerRef() const
    {
        return static_cast<double>(feedNs()) /
               static_cast<double>(std::max<uint64_t>(1, refs()));
    }
};

/** The CPUs this process may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    if (cpus.empty())
        cpus.push_back(-1);
    return cpus;
}

/**
 * One pass, with this thread and every thread it starts on `cpu` (-1:
 * unpinned). Left free, the scheduler sometimes spread an arena's
 * producer and consumer threads over two cores and sometimes stacked
 * them on one, and figure1_pairs ns/ref swung between ~58 and ~85 from
 * run to run. Successive passes take successive CPUs, so a neighbour
 * busy on one core cannot slow every sample of a segment.
 */
Pass
runPass(const WorkloadSpec &spec, uint64_t seed, int cpu, Spans *spans,
        std::vector<std::vector<MemRef>> *prefixes)
{
    Pass pass;
    pass.cpu = cpu;
    pass.traced = spans != nullptr;
    if (cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
    }
    for (size_t i = 0; i < spec.cells.size(); ++i) {
        const Cell &cell = spec.cells[i];
        std::vector<MemRef> *prefix = prefixes ? &(*prefixes)[i] : nullptr;
        pass.cells.push_back(
            cell.arena
                ? runArenaCell(cell, spec.instructions, seed, spans, prefix)
                : runMachineCell(cell, spec.instructions, seed, spans,
                                 prefix));
    }
    if (spans)
        ++spans->passes;
    return pass;
}

// ---------------------------------------------------------------------------
// Layer replays (traced runs)
// ---------------------------------------------------------------------------

struct Replay
{
    int64_t l1Ns = 0;
    uint64_t l1Refs = 0;
    uint64_t l1Events = 0;
    int64_t l2Ns = 0;
    uint64_t l2Accesses = 0;
    uint64_t l2Misses = 0;
    int64_t controllerNs = 0;
    uint64_t controllerRequests = 0;
    int64_t storeNs = 0;
    uint64_t storeLookups = 0;
};

/**
 * Replay one recorded stream prefix through each layer's public entry
 * point, each on fresh state with the section 4.2 geometry:
 * L1Filter::filterBatch, Cache::access on one 512-KB skewed L2,
 * MigrationController::onRequestBatch fed that single L2's miss bits
 * (the machine probes the L2 of whichever core is active, so this is
 * an approximation of the controller's real input), and
 * SoaAffinityStore::lookupFast/storeFast over the sampled lines.
 */
void
replayPrefix(const std::vector<MemRef> &refs, Replay &out)
{
    const MachineConfig mc;
    L1FilterConfig l1c;
    l1c.il1Bytes = mc.il1Bytes;
    l1c.dl1Bytes = mc.dl1Bytes;
    l1c.lineBytes = mc.lineBytes;
    l1c.fullyAssociative = false;
    l1c.ways = mc.l1Ways;
    l1c.unifiedReadWrite = false;
    NullLineSink sink;
    L1Filter l1(l1c, sink);

    constexpr size_t K = MigrationMachine::kBatchRefs;
    std::vector<LineEvent> events;
    events.reserve(refs.size());
    LineEvent ev[K];
    uint32_t idx[K];
    uint32_t evInstr[K];
    uint32_t ifetch = 0;
    int64_t t0 = nowNs();
    for (size_t i = 0; i < refs.size(); i += K) {
        const size_t n = std::min(K, refs.size() - i);
        const size_t m = l1.filterBatch(&refs[i], n, ev, idx, evInstr,
                                        &ifetch);
        events.insert(events.end(), ev, ev + m);
    }
    out.l1Ns += nowNs() - t0;
    out.l1Refs += refs.size();
    out.l1Events += events.size();

    CacheConfig l2c;
    l2c.capacityBytes = mc.l2Bytes;
    l2c.ways = mc.l2Ways;
    l2c.lineBytes = mc.lineBytes;
    l2c.write = WritePolicy::WriteBackAllocate;
    l2c.skewed = mc.l2Skewed;
    l2c.seed = 11;
    Cache l2(l2c);
    std::vector<MigrationController::Request> reqs(events.size());
    t0 = nowNs();
    for (size_t i = 0; i < events.size(); ++i) {
        const AccessOutcome o =
            l2.access(events[i].line, events[i].type == RefType::Store);
        reqs[i] = {events[i].line, !o.hit, events[i].pointer};
    }
    out.l2Ns += nowNs() - t0;
    out.l2Accesses += l2.stats().accesses;
    out.l2Misses += l2.stats().misses;

    MigrationController controller(mc.controller);
    t0 = nowNs();
    for (size_t i = 0; i < reqs.size(); i += K)
        controller.onRequestBatch(&reqs[i], std::min(K, reqs.size() - i));
    out.controllerNs += nowNs() - t0;
    out.controllerRequests += reqs.size();

    std::vector<uint64_t> sampled;
    for (const LineEvent &e : events) {
        if (sampledLine(e.line, mc.controller.samplingCutoff))
            sampled.push_back(e.line);
    }
    SoaAffinityStore store(mc.controller.affinityCache);
    t0 = nowNs();
    for (uint64_t line : sampled)
        store.storeFast(line, store.lookupFast(line, 0) + 1);
    out.storeNs += nowNs() - t0;
    out.storeLookups += store.stats().lookups;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
perRef(int64_t ns, uint64_t refs)
{
    return static_cast<double>(ns) /
           static_cast<double>(std::max<uint64_t>(1, refs));
}

double
ratio(uint64_t a, uint64_t b)
{
    return static_cast<double>(a) /
           static_cast<double>(std::max<uint64_t>(1, b));
}

/** Simulated end-to-end metrics (from one pass; every pass agrees). */
std::vector<Metric>
simulatedMetrics(const WorkloadSpec &spec, const Pass &pass,
                 std::vector<Metric> &fidelity)
{
    const TimingParams timing;
    std::vector<double> missRatios, speedups;
    double cycles = 0.0;
    if (!spec.cells.front().arena) {
        double err = 0.0;
        size_t errCount = 0;
        for (const CellRun &c : pass.cells) {
            const QuadcoreRow &r = c.row;
            missRatios.push_back(r.missRatio());
            const MigrationTradeoff t{r.instructions, r.l2MissesBaseline,
                                      r.l2Misses4x, r.migrations};
            speedups.push_back(estimatedSpeedup(t, timing));
            cycles += estimatedCycles(r.instructions, r.l2Misses4x,
                                      r.migrations, timing);
            const auto paper = kPaperRatio.find(r.name);
            if (paper != kPaperRatio.end()) {
                err += std::fabs(std::log(std::max(r.missRatio(), 1e-9) /
                                          paper->second));
                ++errCount;
            }
        }
        if (errCount == kPaperRatio.size())
            fidelity.push_back({"paper_ratio_err",
                                err / static_cast<double>(errCount),
                                "ratio"});
    } else {
        // Per mix: migration arm vs the throughput arms.
        double jainMin = 1.0;
        for (size_t m = 0; m + kArms <= pass.cells.size(); m += kArms) {
            const ArenaResult &mig = pass.cells[m].arena;
            const ArenaResult &thr = pass.cells[m + 1].arena;
            const ArenaResult &thrWc = pass.cells[m + 2].arena;
            uint64_t migMisses = 0, thrMisses = 0;
            for (const TenantResult &t : mig.tenants)
                migMisses += t.l2Misses;
            for (const TenantResult &t : thr.tenants)
                thrMisses += t.l2Misses;
            missRatios.push_back(ratio(migMisses, thrMisses));
            speedups.push_back(
                std::min(thr.makespanCycles, thrWc.makespanCycles) /
                std::max(mig.makespanCycles, 1.0));
        }
        for (const CellRun &c : pass.cells) {
            cycles += c.arena.makespanCycles;
            jainMin = std::min(jainMin, c.arena.jainFairness);
        }
        fidelity.push_back({"jain_min", jainMin, "index"});
    }
    // The L2 miss ratio stays out of the gated set: storm.thrash flips
    // between 1.0 and 1.5-2.5 from seed to seed by design.
    fidelity.push_back(
        {"l2_miss_ratio_geomean", geomean(missRatios), "ratio"});
    return {
        {"est_speedup_geomean", geomean(speedups), "ratio"},
        {"makespan_mcycles", cycles / 1e6, "Mcycles"},
    };
}

/**
 * Host-time end-to-end metrics: the best over the untraced passes of
 * each feed segment (machine cells; arena cells are one segment) and
 * of each cell's set-up and CPU time, summed. The stream is the same
 * in every pass, so segment k is the same work each time; neighbours
 * on a shared host only ever slow it down, in bursts. Over 10 runs of
 * table2 the median pass read 54-87 ns/ref, the best pass 50-69.
 */
std::vector<Metric>
hostMetrics(const std::vector<const Pass *> &passes,
            std::vector<double> &cellBest)
{
    double setupNs = 0.0, feedNs = 0.0, cpuNsSum = 0.0;
    uint64_t refs = 0;
    for (size_t i = 0; i < passes.front()->cells.size(); ++i) {
        const CellRun &first = passes.front()->cells[i];
        double setup = static_cast<double>(first.setupNs);
        std::vector<Segment> best = first.segments;
        for (const Pass *p : passes) {
            const CellRun &c = p->cells[i];
            setup = std::min(setup, static_cast<double>(c.setupNs));
            for (size_t k = 0; k < best.size(); ++k) {
                const Segment &seg = c.segments[k];
                best[k].wallNs = std::min(best[k].wallNs, seg.wallNs);
                best[k].cpuNs = std::min(best[k].cpuNs, seg.cpuNs);
            }
        }
        double feed = 0.0;
        for (const Segment &seg : best) {
            feed += seg.wallNs;
            cpuNsSum += seg.cpuNs;
        }
        setupNs += setup;
        feedNs += feed;
        refs += first.refs;
        cellBest.push_back(feed / static_cast<double>(
                                      std::max<uint64_t>(1, first.refs)));
    }
    return {
        {"setup_s", setupNs * 1e-9, "s"},
        {"wall_s", (setupNs + feedNs) * 1e-9, "s"},
        {"cpu_s", cpuNsSum * 1e-9, "s"},
        {"ns_per_ref",
         feedNs / static_cast<double>(std::max<uint64_t>(1, refs)), "ns"},
        {"cell_ns_per_ref_p50", median(cellBest), "ns"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
    };
}

/** Per-layer metrics of a traced run (README.md has the map). */
std::vector<Metric>
layerMetrics(const Spans &sp, const Replay &rp,
             const std::vector<const Pass *> &tracedPasses,
             const std::vector<const Pass *> &untraced,
             std::vector<Metric> &selfTime, double &overhead)
{
    const bool arena = sp.arenaRunNs > 0;
    const Pass &traced = *tracedPasses.front();
    const double passes =
        static_cast<double>(std::max<uint64_t>(1, sp.passes));
    uint64_t instructions = 0;
    MultiCoreCounts mc;
    double jainMin = 0.0;
    uint64_t turns = 0, l3Acc = 0, l3Miss = 0;
    for (const CellRun &c : traced.cells) {
        instructions += c.instructions;
        mc.add(c.multi);
        if (arena) {
            jainMin = jainMin == 0.0
                          ? c.arena.jainFairness
                          : std::min(jainMin, c.arena.jainFairness);
            for (const TenantResult &t : c.arena.tenants)
                turns += t.turns;
            l3Acc += c.arena.sharedL3Accesses;
            l3Miss += c.arena.sharedL3Misses;
        }
    }
    const int64_t genNs = sp.feedNs - sp.baselineNs - sp.migrationNs;
    const double base = perRef(sp.baselineNs, sp.baselineRefs);
    const double mig = perRef(sp.migrationNs, sp.migrationRefs);

    // Tracing overhead: traced minus untraced ns/ref. Arena cells run
    // no spans inside run(), so theirs is the arena's own ns/ref.
    std::vector<double> tracedNs, untracedNs;
    for (const Pass *p : untraced)
        untracedNs.push_back(p->nsPerRef());
    for (const Pass *p : tracedPasses)
        tracedNs.push_back(p->nsPerRef());
    overhead = median(tracedNs) - median(untracedNs);

    const double perPass = 1e-6 / passes; // ns -> ms per pass
    selfTime.push_back({arena ? "multicore.arena.setup" : "multicore.setup",
                        static_cast<double>(sp.setupNs) * perPass, "ms"});
    selfTime.push_back({"workloads", static_cast<double>(genNs) * perPass,
                        "ms"});
    if (sp.baselineRefs)
        selfTime.push_back({"multicore.baseline",
                            static_cast<double>(sp.baselineNs) * perPass,
                            "ms"});
    if (sp.migrationRefs)
        selfTime.push_back({"multicore.migration",
                            static_cast<double>(sp.migrationNs) * perPass,
                            "ms"});
    if (arena)
        selfTime.push_back(
            {"multicore.arena.overhead",
             static_cast<double>(sp.arenaRunNs - sp.feedNs) * perPass,
             "ms"});

    return {
        {"workloads.gen_ns_per_ref", perRef(genNs, sp.refs), "ns"},
        {"workloads.refs_per_instr", ratio(traced.refs(), instructions),
         "refs/instr"},
        {"cache.l1.ns_per_ref", perRef(rp.l1Ns, rp.l1Refs), "ns"},
        {"cache.l1.events_per_ref", ratio(rp.l1Events, rp.l1Refs), "ratio"},
        {"cache.l2.ns_per_access", perRef(rp.l2Ns, rp.l2Accesses), "ns"},
        {"cache.l2.miss_ratio", ratio(rp.l2Misses, rp.l2Accesses), "ratio"},
        {"multicore.baseline.ns_per_ref", base, "ns"},
        {"multicore.migration.ns_per_ref", mig, "ns"},
        {"multicore.migration.extra_ns_per_ref",
         sp.baselineRefs && sp.migrationRefs ? mig - base : 0.0, "ns"},
        {"multicore.migration.chunk_ns_p50", percentile(sp.chunkNs, 50.0),
         "ns"},
        {"multicore.migration.chunk_ns_p99", percentile(sp.chunkNs, 99.0),
         "ns"},
        {"multicore.migration.chunk_samples",
         static_cast<double>(sp.chunkNs.size()), "count"},
        {"multicore.migrations", static_cast<double>(mc.migrations),
         "count"},
        {"multicore.update_bus_stores",
         static_cast<double>(mc.updateBusStores), "count"},
        {"multicore.l2_forwards", static_cast<double>(mc.l2Forwards),
         "count"},
        {"core.controller.ns_per_request",
         perRef(rp.controllerNs, rp.controllerRequests), "ns"},
        {"core.controller.requests", static_cast<double>(mc.requests),
         "count"},
        {"core.controller.filter_updates",
         static_cast<double>(mc.filterUpdates), "count"},
        {"core.controller.transitions", static_cast<double>(mc.transitions),
         "count"},
        {"core.store.ns_per_lookup", perRef(rp.storeNs, rp.storeLookups),
         "ns"},
        {"core.store.hit_ratio",
         mc.storeLookups ? 1.0 - ratio(mc.storeMisses, mc.storeLookups)
                         : 0.0,
         "ratio"},
        {"core.store.evictions", static_cast<double>(mc.storeEvictions),
         "count"},
        {"multicore.arena.setup_s",
         arena ? static_cast<double>(sp.setupNs) * 1e-9 / passes : 0.0, "s"},
        {"multicore.arena.overhead_ns_per_ref",
         arena ? perRef(sp.arenaRunNs - sp.feedNs, sp.refs) : 0.0, "ns"},
        {"multicore.arena.turns", static_cast<double>(turns), "count"},
        {"multicore.arena.l3_miss_ratio", ratio(l3Miss, l3Acc), "ratio"},
        {"multicore.arena.jain_min", jainMin, "index"},
        {"trace.overhead_ns_per_ref", overhead, "ns"},
    };
}

void
printMetrics(const char *key, const std::vector<Metric> &metrics,
             bool comma = true)
{
    std::printf("  \"%s\": {", key);
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\n    \"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                    i ? "," : "", metrics[i].name.c_str(),
                    num(metrics[i].value).c_str(), metrics[i].unit.c_str());
    }
    std::printf("\n  }%s\n", comma ? "," : "");
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 42;
    double seconds = 25.0;
    bool trace = false;
    uint64_t instructions = 0; ///< 0 = the workload's default budget
    bool checkReference = false;
};

[[noreturn]] void
usageError(const char *msg)
{
    std::fprintf(stderr,
                 "xmig_bench: %s\nusage: xmig_bench --workload "
                 "table2|storm|figure1_pairs [--seed N] [--seconds S] "
                 "[--trace 0|1] [--instr N] [--check-reference]\n",
                 msg);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(("missing value for " + arg).c_str());
            return argv[++i];
        };
        auto integer = [&]() -> uint64_t {
            const std::string v = value();
            char *end = nullptr;
            const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0' || v[0] == '-')
                usageError(("bad integer for " + arg).c_str());
            return n;
        };
        if (arg == "--workload")
            o.workload = value();
        else if (arg == "--seed")
            o.seed = integer();
        else if (arg == "--seconds")
            o.seconds = static_cast<double>(integer());
        else if (arg == "--trace")
            o.trace = integer() != 0;
        else if (arg == "--instr")
            o.instructions = integer();
        else if (arg == "--check-reference")
            o.checkReference = true;
        else
            usageError(("unknown argument " + arg).c_str());
    }
    if (o.workload.empty())
        usageError("--workload is required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);

    WorkloadSpec spec;
    if (!makeSpec(opt.workload, opt.instructions, spec))
        usageError(("unknown workload " + opt.workload).c_str());

    // Passes until the budget is spent (at least one; a traced run
    // alternates untraced and traced passes, at least one of each).
    std::vector<Pass> passes;
    Spans spans;
    std::vector<std::vector<MemRef>> prefixes(spec.cells.size());
    const std::vector<int> cpus = allowedCpus();
    const int64_t start = nowNs();
    const int64_t budgetNs = static_cast<int64_t>(opt.seconds * 1e9);
    int64_t roundNs = 0;
    do {
        const int64_t r0 = nowNs();
        passes.push_back(runPass(spec, opt.seed,
                                 cpus[passes.size() % cpus.size()], nullptr,
                                 nullptr));
        if (opt.trace) {
            const bool first = spans.passes == 0;
            passes.push_back(runPass(spec, opt.seed,
                                     cpus[passes.size() % cpus.size()],
                                     &spans, first ? &prefixes : nullptr));
        }
        roundNs = std::max(roundNs, nowNs() - r0);
    } while (nowNs() - start + roundNs <= budgetNs);

    // Correctness per cell: identical counters in every pass (traced
    // or not) and a coherent migration machine.
    const Pass &first = passes.front();
    std::vector<std::vector<std::string>> problems(spec.cells.size());
    for (size_t i = 0; i < spec.cells.size(); ++i) {
        for (const Pass &p : passes) {
            if (p.cells[i].counters != first.cells[i].counters) {
                problems[i].push_back(p.traced ? "traced counters differ"
                                               : "counters differ across "
                                                 "passes");
                break;
            }
        }
        for (const Pass &p : passes) {
            if (!p.cells[i].coherent) {
                problems[i].push_back("multiple modified L2 copies");
                break;
            }
        }
    }
    if (opt.checkReference) {
        for (size_t i = 0; i < spec.cells.size(); ++i) {
            if (spec.cells[i].arena)
                continue;
            QuadcoreParams qp;
            qp.instructionsPerBenchmark = spec.instructions;
            qp.seed = opt.seed;
            const QuadcoreRow ref = runQuadcore(spec.cells[i].name, qp);
            const QuadcoreRow &r = first.cells[i].row;
            if (ref.instructions != r.instructions ||
                ref.l1Misses != r.l1Misses ||
                ref.l2MissesBaseline != r.l2MissesBaseline ||
                ref.l2Misses4x != r.l2Misses4x ||
                ref.migrations != r.migrations ||
                ref.l2ToL2Forwards != r.l2ToL2Forwards)
                problems[i].push_back("differs from runQuadcore");
        }
    }

    std::vector<const Pass *> untraced, traced;
    for (const Pass &p : passes)
        (p.traced ? traced : untraced).push_back(&p);

    std::vector<Metric> fidelity;
    std::vector<double> cellNsPerRef;
    std::vector<Metric> endToEnd = hostMetrics(untraced, cellNsPerRef);
    for (const Metric &m : simulatedMetrics(spec, first, fidelity))
        endToEnd.push_back(m);

    std::printf("{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
                "  \"instructions\": %llu,\n  \"passes\": %zu,\n"
                "  \"traced_passes\": %llu,\n",
                spec.name.c_str(), (unsigned long long)opt.seed,
                (unsigned long long)spec.instructions, untraced.size(),
                (unsigned long long)spans.passes);
    std::printf("  \"pass_ns_per_ref\": [");
    for (size_t i = 0; i < passes.size(); ++i)
        std::printf("%s%s", i ? ", " : "",
                    num(passes[i].nsPerRef()).c_str());
    std::printf("],\n  \"pass_cpu\": [");
    for (size_t i = 0; i < passes.size(); ++i)
        std::printf("%s%d", i ? ", " : "", passes[i].cpu);
    std::printf("],\n  \"pass_traced\": [");
    for (size_t i = 0; i < passes.size(); ++i)
        std::printf("%s%s", i ? ", " : "",
                    passes[i].traced ? "true" : "false");
    std::printf("],\n");
    std::printf("  \"cells\": [");
    for (size_t i = 0; i < spec.cells.size(); ++i) {
        const CellRun &c = first.cells[i];
        std::string probs;
        for (const std::string &p : problems[i])
            probs += (probs.empty() ? "\"" : ", \"") + p + "\"";
        std::printf("%s\n    {\"name\": \"%s\", \"digest\": \"%016llx\", "
                    "\"ns_per_ref\": %s, \"refs\": %llu, \"problems\": [%s]",
                    i ? "," : "", spec.cells[i].name.c_str(),
                    (unsigned long long)fnv1a(c.counters),
                    num(cellNsPerRef[i]).c_str(), (unsigned long long)c.refs,
                    probs.c_str());
        if (spec.cells[i].arena) {
            const ArenaResult &r = c.arena;
            std::printf(", \"makespan_mcycles\": %s, \"aggregate_ipc\": %s, "
                        "\"weighted_speedup\": %s, \"unfairness\": %s, "
                        "\"jain\": %s, \"l3_accesses\": %llu, "
                        "\"l3_misses\": %llu",
                        num(r.makespanCycles / 1e6).c_str(),
                        num(r.aggregateIpc).c_str(),
                        num(r.weightedSpeedup).c_str(),
                        num(r.unfairness).c_str(),
                        num(r.jainFairness).c_str(),
                        (unsigned long long)r.sharedL3Accesses,
                        (unsigned long long)r.sharedL3Misses);
        } else {
            const auto paper = kPaperRatio.find(c.row.name);
            std::printf(", \"ratio\": %s, \"paper_ratio\": %s",
                        num(c.row.missRatio()).c_str(),
                        paper == kPaperRatio.end()
                            ? "null"
                            : num(paper->second).c_str());
        }
        std::printf("}");
    }
    std::printf("\n  ],\n");
    printMetrics("fidelity", fidelity);
    if (!traced.empty()) {
        Replay replay;
        for (const std::vector<MemRef> &prefix : prefixes)
            replayPrefix(prefix, replay);
        std::vector<Metric> selfTime;
        double overhead = 0.0;
        const std::vector<Metric> layers =
            layerMetrics(spans, replay, traced, untraced, selfTime,
                         overhead);
        printMetrics("self_time_ms_per_pass", selfTime);
        printMetrics("layers", layers);
    }
    printMetrics("end_to_end", endToEnd, false);
    std::printf("}\n");
    return 0;
}
