/**
 * @file
 * xmig-bolt batching byte-identity: runQuadcore's one chunked feed
 * cuts a chunk at every time-series sample instant and right after
 * the reference that retires the warm-up budget, so a sampled run
 * must be indistinguishable from an unsampled one in every
 * observable — Table-2 rows, machine counters, journal JSONL bytes,
 * sweep text at any --jobs — with and without an armed fault plan,
 * and the sampled artifacts must match the ones recorded from the
 * per-reference feed the chunked one replaced. One ChunkFeed driving
 * machines of three configurations and a bare L1 must equal feeding
 * each reference by reference — every counter, the L1 event sequence,
 * the warm-up reset point and every owner snapshot — on every
 * workload, with a warm-up, an address offset, an armed fault plan
 * and an owner cut at every chunk position. Checkpoints must
 * round-trip mid-stream, and the affinity cache must keep deciding as
 * recorded. These are the acceptance properties of
 * docs/parallelism.md, "batching".
 */

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/oe_store.hpp"
#include "core/soa_oe_store.hpp"
#include "multicore/arena.hpp"
#include "multicore/feed.hpp"
#include "sim/observe.hpp"
#include "sim/quadcore.hpp"
#include "sim/runner/sweep.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

namespace xmig {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Options of an observatory that samples time series, every 10'000
 * references, into a scratch CSV named after `tag` (unique per
 * concurrent run). The feed cuts a chunk at every sample instant.
 */
BenchOptions
sampledOptions(const std::string &tag)
{
    BenchOptions oo;
    oo.samplesOut = testing::TempDir() + "xmig_sampled_" + tag + ".csv";
    return oo;
}

/** runQuadcore, sampled when `sampled_tag` is set (it names the
 *  scratch CSV) and unobserved otherwise. */
QuadcoreRow
runFeed(const std::string &bench, const QuadcoreParams &p,
        const std::string &sampled_tag)
{
    if (sampled_tag.empty())
        return runQuadcore(bench, p);
    RunObservatory observatory(sampledOptions(sampled_tag));
    return runQuadcore(bench, p, &observatory);
}

/** Table-2 parameters of the runs below. */
QuadcoreParams
runParams(uint64_t warmup, uint64_t instructions = 120'000,
               const std::string &plan = "")
{
    QuadcoreParams p;
    p.instructionsPerBenchmark = instructions;
    p.warmupInstructions = warmup;
    p.machine.faultPlan = plan;
    return p;
}

QuadcoreRow
runWith(const std::string &bench, const std::string &sampled_tag,
        uint64_t warmup = 0, const std::string &plan = "")
{
    return runFeed(bench, runParams(warmup, 120'000, plan), sampled_tag);
}

void
expectRowsEqual(const QuadcoreRow &a, const QuadcoreRow &b,
                const std::string &what)
{
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << what;
    EXPECT_EQ(a.l2MissesBaseline, b.l2MissesBaseline) << what;
    EXPECT_EQ(a.l2Misses4x, b.l2Misses4x) << what;
    EXPECT_EQ(a.migrations, b.migrations) << what;
    EXPECT_EQ(a.l2ToL2Forwards, b.l2ToL2Forwards) << what;
}

/** FNV-1a 64 over the eight little-endian bytes of `v`. */
uint64_t
fnvMix(uint64_t hash, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (v >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

uint64_t
fnvBytes(uint64_t hash, const std::string &bytes)
{
    for (const char ch : bytes)
        hash = fnvMix(hash, static_cast<uint64_t>(ch));
    return hash;
}

uint64_t
rowDigest(uint64_t hash, const QuadcoreRow &r)
{
    for (const uint64_t v : {r.instructions, r.l1Misses, r.l2MissesBaseline,
                             r.l2Misses4x, r.migrations, r.l2ToL2Forwards})
        hash = fnvMix(hash, v);
    return hash;
}

/** One Table-2 run's artifacts, read back from their scratch files. */
struct Artifacts
{
    QuadcoreRow row;
    std::string samples;
    std::string metrics;
    std::string journal;
};

/**
 * runQuadcore with the journal, and the time-series CSV and metrics
 * JSONL when asked for, written under names built from `tag`.
 * `sample_every` is the time-series cadence.
 */
Artifacts
runObserved(const std::string &bench, const std::string &tag,
            const QuadcoreParams &p, uint64_t sample_every, bool samples,
            bool metrics)
{
    const std::string stem = testing::TempDir() + "xmig_observed_" + tag;
    BenchOptions oo;
    oo.sampleEvery = sample_every;
    if (samples)
        oo.samplesOut = stem + ".csv";
    if (metrics)
        oo.metricsOut = stem + ".metrics.jsonl";
    oo.journalOut = stem + ".journal.jsonl";
    Artifacts a;
    {
        RunObservatory observatory(oo);
        a.row = runQuadcore(bench, p, &observatory);
    }
    if (samples)
        a.samples = slurp(oo.samplesOut);
    if (metrics)
        a.metrics = slurp(oo.metricsOut);
    a.journal = slurp(oo.journalOut);
    return a;
}

/**
 * The metrics JSONL without its inter-migration gap histograms.
 * Before the fix that restarts them at a warm-up reset they kept the
 * warm-up gaps; MigrationMachine.ResetStatsRestartsMigrationGaps
 * covers them instead.
 */
std::string
withoutMigrationGaps(const std::string &jsonl)
{
    std::istringstream in(jsonl);
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.find("inter_migration_refs") == std::string::npos)
            out += line + "\n";
    }
    return out;
}

/** The reference stream of `bench` at seed 42. */
std::vector<MemRef>
recordStream(const std::string &bench, uint64_t instructions)
{
    RefRecorder recorder;
    makeWorkload(bench)->run(recorder, instructions, 42);
    return recorder.refs();
}

/** References up to and including the `warmup`-th instruction fetch
 *  of `stream`. */
uint64_t
warmupRefsOf(const std::vector<MemRef> &stream, uint64_t warmup)
{
    uint64_t instructions = 0;
    for (size_t i = 0; i < stream.size(); ++i) {
        if (stream[i].isIfetch() && ++instructions == warmup)
            return i + 1;
    }
    return 0;
}

/** Every counter a machine exposes, its active core last. */
std::vector<uint64_t>
machineCounters(const MigrationMachine &m)
{
    const MachineStats &s = m.stats();
    std::vector<uint64_t> v = {
        s.instructions, s.refs, s.l1Misses, s.l2Accesses, s.l2Misses,
        s.l2ToL2Forwards, s.l3Writebacks, s.migrations,
        s.updateBusStores, s.prefetchFills, s.prefetchUseful,
        s.l3Accesses, s.l3Misses, s.memoryWritebacks, s.coreOffEvents,
        s.coreOnEvents, s.dirtyLinesLost, s.busDrops,
        s.coherenceRepairs};
    const auto level = [&](const CacheStats &c) {
        v.insert(v.end(), {c.accesses, c.hits, c.misses, c.writebacks});
    };
    level(m.l1().il1Stats());
    level(m.l1().dl1Stats());
    for (unsigned c = 0; c < m.config().numCores; ++c)
        level(m.l2(c).stats());
    if (m.l3() != nullptr)
        level(m.l3()->stats());
    v.push_back(m.activeCore());
    return v;
}

/**
 * Machines of different configurations that one feed drives side by
 * side: the 1-core baseline, the paper's 4-core machine (armed with
 * `plan`), and an 8-core machine with a finite L3 and a prefetcher.
 */
std::vector<std::unique_ptr<MigrationMachine>>
feedMachines(const std::string &plan)
{
    MachineConfig base;
    base.numCores = 1;
    MachineConfig quad;
    quad.faultPlan = plan;
    MachineConfig wide;
    wide.numCores = 8;
    wide.controller.affinityCache.entries = 16 * 1024;
    wide.l3Bytes = 1024 * 1024;
    wide.prefetch.kind = PrefetchKind::Stride;
    std::vector<std::unique_ptr<MigrationMachine>> machines;
    for (const MachineConfig &c : {base, quad, wide})
        machines.push_back(std::make_unique<MigrationMachine>(c));
    return machines;
}

/** Records a bare L1's post-L1 events. */
class LineLog final : public LineSink
{
  public:
    void onLine(const LineEvent &event) override { events.push_back(event); }

    std::vector<LineEvent> events;
};

bool
sameEvents(const std::vector<LineEvent> &a, const std::vector<LineEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].line != b[i].line || a[i].type != b[i].type ||
            a[i].l1Miss != b[i].l1Miss || a[i].pointer != b[i].pointer)
            return false;
    }
    return true;
}

/** How a feed under test is driven. */
struct FeedCase
{
    uint64_t warmup = 0;
    uint64_t offset = 0;
    std::string plan;        ///< armed on the 4-core machine
    uint64_t firstEvent = 0; ///< the owner's first event; 0: no owner
    uint64_t every = 1'000;  ///< then one every this many references
};

/** What the feed's owner saw, for checks beyond per-ref equality. */
struct FeedSeen
{
    uint64_t resetAt = 0; ///< references fed when the reset landed
    std::vector<std::vector<uint64_t>> snapshots; ///< 4-core, per event
    std::vector<LineEvent> l1Events;
};

/**
 * Owner with events at `first` and then every `every` references. At
 * each it snapshots the watched machine, and it notes where the
 * warm-up reset landed.
 */
class CutOwner final : public FeedOwner
{
  public:
    CutOwner(const MigrationMachine &watched, uint64_t first,
             uint64_t every, FeedSeen &seen)
        : watched_(watched), next_(first), every_(every), seen_(seen)
    {
    }

    uint64_t refsUntilEvent() const override { return next_ - refs_; }

    void onStatsReset() override { resetPending_ = true; }

    void
    onChunk(size_t n) override
    {
        EXPECT_LE(n, MigrationMachine::kBatchRefs);
        refs_ += n;
        if (resetPending_) {
            seen_.resetAt = refs_;
            resetPending_ = false;
        }
        if (refs_ == next_) {
            seen_.snapshots.push_back(machineCounters(watched_));
            next_ += every_;
        }
    }

  private:
    const MigrationMachine &watched_;
    uint64_t next_;
    uint64_t every_;
    FeedSeen &seen_;
    uint64_t refs_ = 0;
    bool resetPending_ = false;
};

/**
 * Drive `stream` through one ChunkFeed into three machines and a bare
 * L1, and reference by reference into a twin of each, and expect every
 * counter, the L1 stats and event sequence, the reset point and every
 * owner snapshot to agree; a feed with no target must tally the
 * stream. Returns what the feed's owner saw.
 */
FeedSeen
expectFeedMatchesPerRef(const std::vector<MemRef> &stream,
                        const FeedCase &c, const std::string &what)
{
    const L1FilterConfig l1c; // Table 1's fully-associative L1s
    FeedSeen seen;
    auto fed = feedMachines(c.plan);
    LineLog fedLog;
    L1Filter fedL1(l1c, fedLog);
    {
        CutOwner owner(*fed[1], c.firstEvent, c.every, seen);
        ChunkFeed feed({fed[0].get(), fed[1].get(), fed[2].get()},
                       {&fedL1}, c.warmup,
                       c.firstEvent != 0 ? &owner : nullptr, c.offset);
        ChunkFeed tallies({}, {}, c.warmup, nullptr, c.offset);
        uint64_t instructions = 0, loads = 0;
        for (const MemRef &ref : stream) {
            feed.access(ref);
            tallies.access(ref);
            instructions += ref.isIfetch() ? 1 : 0;
            loads += ref.type == RefType::Load ? 1 : 0;
        }
        feed.flush();
        tallies.flush();
        EXPECT_EQ(tallies.instructions(), instructions) << what;
        EXPECT_EQ(tallies.loads(), loads) << what;
        EXPECT_EQ(tallies.refs(), stream.size()) << what;
    }
    seen.l1Events = fedLog.events;

    auto twins = feedMachines(c.plan);
    LineLog twinLog;
    L1Filter twinL1(l1c, twinLog);
    uint64_t instructions = 0, refs = 0, resetAt = 0;
    uint64_t next = c.firstEvent;
    std::vector<std::vector<uint64_t>> snapshots;
    for (MemRef ref : stream) {
        ref.addr += c.offset;
        for (auto &m : twins)
            m->access(ref);
        twinL1.access(ref);
        ++refs;
        if (ref.isIfetch() && ++instructions == c.warmup) {
            for (auto &m : twins)
                m->resetStats();
            twinL1.resetStats();
            resetAt = refs;
        }
        if (c.firstEvent != 0 && refs == next) {
            snapshots.push_back(machineCounters(*twins[1]));
            next += c.every;
        }
    }

    for (size_t i = 0; i < twins.size(); ++i) {
        EXPECT_EQ(machineCounters(*fed[i]), machineCounters(*twins[i]))
            << what << " machine " << i;
    }
    for (const bool il1 : {true, false}) {
        const CacheStats &a = il1 ? fedL1.il1Stats() : fedL1.dl1Stats();
        const CacheStats &b = il1 ? twinL1.il1Stats() : twinL1.dl1Stats();
        EXPECT_EQ(a.accesses, b.accesses) << what;
        EXPECT_EQ(a.hits, b.hits) << what;
        EXPECT_EQ(a.misses, b.misses) << what;
    }
    EXPECT_TRUE(sameEvents(fedLog.events, twinLog.events)) << what;
    EXPECT_EQ(seen.snapshots, snapshots) << what;
    if (c.firstEvent != 0) {
        EXPECT_EQ(seen.resetAt, resetAt) << what;
    }
    return seen;
}
} // namespace

TEST(BatchDeterminism, EveryTable1WorkloadAgreesBatchedAndPerRef)
{
    for (const std::string &name : allWorkloadNames()) {
        expectRowsEqual(runWith(name, "table1_" + name),
                        runWith(name, ""), name);
        expectFeedMatchesPerRef(recordStream(name, 20'000), {},
                                "feed " + name);
    }
}

TEST(BatchDeterminism, AdversarialWorkloadsAgreeBatchedAndPerRef)
{
    for (const std::string &name : adversarialWorkloadNames()) {
        expectRowsEqual(runWith(name, "adversarial_" + name),
                        runWith(name, ""), name);
        expectFeedMatchesPerRef(recordStream(name, 20'000), {},
                                "feed " + name);
    }
}

TEST(BatchDeterminism, WarmupResetLandsMidChunkExactly)
{
    // 37'777 instructions is not a multiple of K = 64 references, so
    // the feed cuts a chunk short for the counter reset. The row is
    // also pinned to the one recorded from the separate
    // per-reference, batched and pipelined warm-up feeds that the one
    // tee replaced.
    const QuadcoreRow sampled = runWith("179.art", "warmup", 37'777);
    expectRowsEqual(sampled, runWith("179.art", "", 37'777), "warmup");
    expectRowsEqual({"", "", 120'623, 7'549, 7'549, 7'549, 0, 0},
                    sampled, "pinned warmup row");

    // Every feed target restarts on the same mid-chunk reference.
    const std::vector<MemRef> stream = recordStream("181.mcf", 20'000);
    FeedCase c;
    c.warmup = 7'777;
    c.firstEvent = 1'000;
    const FeedSeen seen = expectFeedMatchesPerRef(stream, c, "feed warmup");
    EXPECT_EQ(seen.resetAt, warmupRefsOf(stream, c.warmup));
    EXPECT_NE(seen.resetAt % MigrationMachine::kBatchRefs, 0u);
}

TEST(BatchDeterminism, ArmedFaultPlanAgreesBatchedAndPerRef)
{
    // Injector ticks are per-reference, so the fault-armed machine
    // runs one-reference chunks internally — sampled and unsampled
    // feeds must still see the identical fault timeline.
    const std::string plan =
        "seed=5;rate=0.001:bus_drop;at=60000:core_off=1;"
        "at=90000:core_on=1";
    expectRowsEqual(runWith("179.art", "fault", 0, plan),
                    runWith("179.art", "", 0, plan), "fault");

    // A feed keeps the armed machine's timeline beside clean ones.
    FeedCase c;
    c.plan = "seed=5;rate=0.001:bus_drop;at=6000:core_off=1;"
             "at=9000:core_on=1";
    c.firstEvent = 777;
    c.every = 777;
    const FeedSeen seen = expectFeedMatchesPerRef(
        recordStream("storm.thrash", 20'000), c, "feed fault");
    ASSERT_FALSE(seen.snapshots.empty());
}

TEST(BatchDeterminism, JournalJsonlBytesAgreeBatchedAndPerRef)
{
    // The Chrome trace is rendered from the same journal, so it must
    // agree byte for byte too.
    std::string jsonl[2], trace[2];
    for (int m = 0; m < 2; ++m) {
        BenchOptions oo = m == 0 ? sampledOptions("journal")
                                   : BenchOptions{};
        const std::string stem = testing::TempDir() +
                                 "xmig_batch_journal_" +
                                 std::to_string(m);
        oo.journalOut = stem + ".jsonl";
        oo.traceOut = stem + ".json";
        RunObservatory observatory(oo);
        QuadcoreParams p;
        p.instructionsPerBenchmark = 120'000;
        runQuadcore("storm.thrash", p, &observatory);
        jsonl[m] = slurp(oo.journalOut);
        trace[m] = slurp(oo.traceOut);
    }
    ASSERT_FALSE(jsonl[0].empty());
    EXPECT_EQ(jsonl[0], jsonl[1]) << "unsampled journal diverged";
    ASSERT_FALSE(trace[0].empty());
    EXPECT_EQ(trace[0], trace[1]) << "unsampled trace diverged";
}

TEST(BatchDeterminism, SweepTextIdenticalAcrossJobsBatchedAndPerRef)
{
    const std::vector<std::string> benches = {"179.art", "181.mcf",
                                              "em3d"};
    auto sweepText = [&](bool sampled, unsigned jobs) {
        SweepSpec spec;
        spec.cells = benches.size();
        spec.run = [&](size_t i) {
            QuadcoreParams p;
            p.instructionsPerBenchmark = 60'000;
            const QuadcoreRow r = runFeed(
                benches[i], p,
                sampled ? "sweep_" + std::to_string(jobs) + "_" +
                              std::to_string(i)
                        : "");
            RunResult res;
            res.rows.push_back(
                {"",
                 {r.name, std::to_string(r.l2Misses4x),
                  std::to_string(r.migrations)}});
            return res;
        };
        const std::vector<RunResult> results = runSweep(spec, jobs);
        AsciiTable table({"benchmark", "l2miss", "migrations"});
        collateRows(results, table);
        return table.render();
    };
    const std::string reference = sweepText(true, 1);
    for (const bool sampled : {false, true}) {
        for (const unsigned jobs : {1u, 3u, 8u}) {
            if (sampled && jobs == 1)
                continue; // the reference itself
            EXPECT_EQ(reference, sweepText(sampled, jobs))
                << (sampled ? "sampled" : "unsampled")
                << " jobs=" << jobs;
        }
    }
}

TEST(BatchDeterminism, SampleCutOnWarmupReference)
{
    // A cadence equal to the reference count at which warm-up retires
    // puts the first sample instant and the counter reset on the same
    // reference: the row must be read after the reset. Cadence 1 cuts
    // the feed at every reference, on a run short enough that the
    // ring keeps every row (each row scans all four L2s); a cadence
    // past the run's end never samples, and its CSV is the header.
    const uint64_t warmup = 37'777;
    const uint64_t warmup_refs =
        warmupRefsOf(recordStream("179.art", warmup), warmup);
    ASSERT_GT(warmup_refs, warmup);

    struct Case
    {
        uint64_t sampleEvery;
        QuadcoreParams params;
        uint64_t csvDigest;
    };
    const Case cases[] = {
        {warmup_refs, runParams(warmup), 0xd3be998dedafb76dull},
        {1, runParams(1'177, 600), 0x4d2239288e5f0a33ull},
        {UINT64_MAX, runParams(warmup), 0x3826d76ec7e1daf2ull},
    };
    for (const Case &c : cases) {
        const std::string tag = "cut_" + std::to_string(c.sampleEvery);
        const Artifacts plain = runObserved("179.art", tag + "_plain",
                                            c.params, 0, false, false);
        const Artifacts a =
            runObserved("179.art", tag, c.params, c.sampleEvery, true,
                        false);
        expectRowsEqual(plain.row, a.row, tag);
        EXPECT_EQ(plain.journal, a.journal) << tag;
        EXPECT_EQ(fnvBytes(0xcbf29ce484222325ull, a.samples), c.csvDigest)
            << tag;
    }

    // A feed owner's first event on the warm-up reference reads every
    // target after the reset.
    const std::vector<MemRef> stream = recordStream("181.mcf", 20'000);
    FeedCase c;
    c.warmup = 7'777;
    c.firstEvent = warmupRefsOf(stream, c.warmup);
    const FeedSeen seen = expectFeedMatchesPerRef(stream, c, "feed cut");
    EXPECT_EQ(seen.resetAt, c.firstEvent);
    ASSERT_FALSE(seen.snapshots.empty());
    EXPECT_EQ(seen.snapshots.front()[1], 0u) << "refs since the reset";
}

TEST(BatchDeterminism, FeedOwnerCutsAtEveryChunkPosition)
{
    // The owner's first event lands p references into the second
    // chunk, for every p in 0..K, and the stream is offset into a
    // tenant's address range.
    const std::vector<MemRef> stream = recordStream("181.mcf", 3'000);
    const size_t k = MigrationMachine::kBatchRefs;
    for (size_t p = 0; p <= k; ++p) {
        FeedCase c;
        c.offset = TenantArena::kTenantAddressStride * 3;
        c.firstEvent = k + p;
        c.every = 97;
        const FeedSeen seen = expectFeedMatchesPerRef(
            stream, c, "cut at " + std::to_string(p));
        EXPECT_EQ(seen.snapshots.size(),
                  (stream.size() - k - p) / c.every + 1);
        ASSERT_FALSE(seen.l1Events.empty());
        EXPECT_GE(seen.l1Events.front().line, c.offset / 64);
    }
}

TEST(BatchDeterminism, EngineCheckpointRoundTripsMidBatch)
{
    EngineConfig ec;
    ec.windowSize = 128;
    AffinityCacheConfig ac;
    SoaAffinityStore sb(ac), sc(ac);
    AffinityEngine b(ec, sb);
    CircularStream stream(4000);
    std::vector<uint64_t> lines;
    for (int i = 0; i < 100; ++i)
        lines.push_back(stream.next());

    // Checkpoint after 64 of the 100 references, engine and store
    // together, and continue both the original and a restored copy.
    std::vector<RefOutcome> out;
    for (size_t i = 0; i < 64; ++i)
        out.push_back(b.reference(lines[i]));
    const EngineCheckpoint ckpt = b.checkpoint();
    std::vector<OeEntrySnapshot> entries;
    sb.snapshotEntries(entries);
    const OeStoreStats storeStats = sb.stats();
    for (size_t i = 64; i < lines.size(); ++i)
        out.push_back(b.reference(lines[i]));

    AffinityEngine c(ec, sc);
    sc.restoreEntries(entries, storeStats);
    c.restore(ckpt);
    for (size_t i = 64; i < lines.size(); ++i)
        EXPECT_EQ(c.reference(lines[i]).ae, out[i].ae) << "ref " << i;
}

TEST(BatchDeterminism, MachineCheckpointBetweenOddLengthBatches)
{
    MachineConfig cfg;
    MigrationMachine a(cfg), b(cfg);
    CircularStream s(20'000);
    std::vector<MemRef> refs;
    for (uint64_t i = 0; i < 150'000; ++i) {
        refs.push_back(MemRef::ifetch(0x400000 + (i % 4096) * 4));
        const uint64_t addr = s.next() * 64;
        refs.push_back(i % 4 == 0 ? MemRef::store(addr)
                                  : MemRef::load(addr));
    }

    // a: one reference per call; b: odd-length batches. Checkpoint
    // both mid-stream.
    const size_t half = refs.size() / 2 + 33; // not a chunk multiple
    for (size_t i = 0; i < half; ++i)
        a.access(refs[i]);
    for (size_t at = 0; at < half;) {
        const size_t k = std::min<size_t>(97, half - at);
        b.accessBatch(refs.data() + at, k);
        at += k;
    }
    const MachineCheckpoint ca = a.checkpoint();
    const MachineCheckpoint cb = b.checkpoint();
    EXPECT_EQ(ca.stats.refs, cb.stats.refs);
    EXPECT_EQ(ca.stats.instructions, cb.stats.instructions);
    EXPECT_EQ(ca.stats.l1Misses, cb.stats.l1Misses);
    EXPECT_EQ(ca.stats.l2Misses, cb.stats.l2Misses);
    EXPECT_EQ(ca.stats.migrations, cb.stats.migrations);

    // Restore the batched machine's checkpoint into two fresh
    // machines and drive one a reference per call, one batched: they
    // must stay in lockstep to the end of the stream.
    MigrationMachine c(cfg), d(cfg);
    c.restore(cb);
    d.restore(cb);
    for (size_t i = half; i < refs.size(); ++i)
        c.access(refs[i]);
    for (size_t at = half; at < refs.size();) {
        const size_t k = std::min<size_t>(101, refs.size() - at);
        d.accessBatch(refs.data() + at, k);
        at += k;
    }
    EXPECT_EQ(c.stats().refs, d.stats().refs);
    EXPECT_EQ(c.stats().instructions, d.stats().instructions);
    EXPECT_EQ(c.stats().l1Misses, d.stats().l1Misses);
    EXPECT_EQ(c.stats().l2Misses, d.stats().l2Misses);
    EXPECT_EQ(c.stats().migrations, d.stats().migrations);
    EXPECT_EQ(c.activeCore(), d.activeCore());
}

TEST(BatchDeterminism, SoaStoreDecidesExactlyLikeAos)
{
    // Rows of the section 4.2 machine with its 8k-entry affinity
    // cache, recorded from the array-of-structures store the SoA
    // store replaced (both produced these rows).
    struct Pinned
    {
        const char *name;
        QuadcoreRow row;
    };
    const Pinned kPinned[] = {
        {"179.art", {"", "", 120'600, 7'553, 7'553, 7'553, 0, 0}},
        {"storm.thrash", {"", "", 120'000, 56'412, 4'129, 9'175, 88,
                          1'279}},
    };
    for (const Pinned &want : kPinned) {
        QuadcoreParams p;
        p.instructionsPerBenchmark = 120'000;
        p.machine.controller.boundedStore = true;
        expectRowsEqual(want.row, runQuadcore(want.name, p), want.name);
    }
}

/*
 * Every artifact of sampled Table-2 runs with a warm-up whose reset
 * lands mid-chunk, at cadences that do not divide K = 64: the row,
 * the time-series CSV, the metrics JSONL (see withoutMigrationGaps)
 * and the journal JSONL. One run also arms a fault plan. Recorded
 * from the feed that ran warm-up and sampled runs one reference at
 * a time.
 */
TEST(QuadcoreGolden, SampledWarmupArtifactsArePinned)
{
    struct Case
    {
        const char *bench;
        uint64_t sampleEvery;
        const char *plan;
        uint64_t digest;
    };
    const Case cases[] = {
        {"179.art", 1000, "", 0x0cc50a24c2c4d08cull},
        {"179.art", 777, "", 0xc338b446daaa72ceull},
        {"storm.thrash", 1000, "", 0x452a6e327f90e44dull},
        {"storm.thrash", 777, "", 0xfdd1be5a18fb09a8ull},
        {"storm.thrash", 777,
         "seed=5;rate=0.001:bus_drop;at=60000:core_off=1;"
         "at=90000:core_on=1",
         0xddc1b74bafcb0108ull},
    };
    int n = 0;
    for (const Case &c : cases) {
        const Artifacts a = runObserved(
            c.bench, "golden_" + std::to_string(n++),
            runParams(37'777, 120'000, c.plan), c.sampleEvery, true,
            true);
        ASSERT_FALSE(a.samples.empty());
        ASSERT_FALSE(a.metrics.empty());
        ASSERT_FALSE(a.journal.empty());
        uint64_t hash = rowDigest(0xcbf29ce484222325ull, a.row);
        hash = fnvBytes(hash, a.samples);
        hash = fnvBytes(hash, withoutMigrationGaps(a.metrics));
        hash = fnvBytes(hash, a.journal);
        EXPECT_EQ(hash, c.digest) << c.bench << " every " << c.sampleEvery
                                  << " plan '" << c.plan << "'";
    }
}

} // namespace xmig
