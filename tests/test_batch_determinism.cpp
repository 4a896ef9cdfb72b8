/**
 * @file
 * xmig-bolt batching byte-identity: runQuadcore's one chunked feed
 * cuts a chunk at every time-series sample instant and right after
 * the reference that retires the warm-up budget, so a sampled run
 * must be indistinguishable from an unsampled one in every
 * observable — Table-2 rows, machine counters, journal JSONL bytes,
 * sweep text at any --jobs — with and without an armed fault plan,
 * and the sampled artifacts must match the ones recorded from the
 * per-reference feed the chunked one replaced. Checkpoints must
 * round-trip mid-stream, and the affinity cache must keep deciding as
 * recorded. These are the acceptance properties of
 * docs/parallelism.md, "batching".
 */

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/oe_store.hpp"
#include "core/soa_oe_store.hpp"
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
ObserveOptions
sampledOptions(const std::string &tag)
{
    ObserveOptions oo;
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
    ObserveOptions oo;
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

/** References up to and including the `warmup`-th instruction fetch. */
class WarmupRefCounter final : public RefSink
{
  public:
    explicit WarmupRefCounter(uint64_t warmup)
        : warmup_(warmup)
    {
    }

    void
    access(const MemRef &ref) override
    {
        if (instructions_ == warmup_)
            return;
        ++refs_;
        if (ref.isIfetch())
            ++instructions_;
    }

    uint64_t refs() const { return refs_; }

  private:
    uint64_t warmup_;
    uint64_t instructions_ = 0;
    uint64_t refs_ = 0;
};

} // namespace

TEST(BatchDeterminism, EveryTable1WorkloadAgreesBatchedAndPerRef)
{
    for (const std::string &name : allWorkloadNames()) {
        expectRowsEqual(runWith(name, "table1_" + name),
                        runWith(name, ""), name);
    }
}

TEST(BatchDeterminism, AdversarialWorkloadsAgreeBatchedAndPerRef)
{
    for (const std::string &name : adversarialWorkloadNames()) {
        expectRowsEqual(runWith(name, "adversarial_" + name),
                        runWith(name, ""), name);
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
}

TEST(BatchDeterminism, JournalJsonlBytesAgreeBatchedAndPerRef)
{
    // The Chrome trace is rendered from the same journal, so it must
    // agree byte for byte too.
    std::string jsonl[2], trace[2];
    for (int m = 0; m < 2; ++m) {
        ObserveOptions oo = m == 0 ? sampledOptions("journal")
                                   : ObserveOptions{};
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
    // ring keeps every row (each row scans all four L2s); cadence 0
    // turns tick sampling off.
    const uint64_t warmup = 37'777;
    WarmupRefCounter counter(warmup);
    makeWorkload("179.art")->run(counter, warmup, 42);
    const uint64_t warmup_refs = counter.refs();
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
        {0, runParams(warmup), 0x3826d76ec7e1daf2ull},
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
