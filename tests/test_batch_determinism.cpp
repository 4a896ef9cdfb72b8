/**
 * @file
 * xmig-bolt batching byte-identity: runQuadcore's batched feed must
 * be indistinguishable from its per-reference branch (the one an
 * observatory that samples time series keeps it on) in every
 * observable — Table-2 rows, machine counters, journal JSONL bytes,
 * sweep text at any --jobs — with and without an armed fault plan;
 * checkpoints must round-trip mid-stream; and the affinity cache must
 * keep deciding as recorded. These are the acceptance properties of
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
 * Options of an observatory that samples time series into a scratch
 * CSV named after `tag` (unique per concurrent run). Sampling is
 * defined per reference, so runQuadcore feeds such a run one
 * reference at a time.
 */
ObserveOptions
perRefOptions(const std::string &tag)
{
    ObserveOptions oo;
    oo.samplesOut = testing::TempDir() + "xmig_per_ref_" + tag + ".csv";
    return oo;
}

/** runQuadcore, on the per-reference branch when `per_ref_tag` is
 *  set (it names the scratch CSV) and on the batched feed otherwise. */
QuadcoreRow
runFeed(const std::string &bench, const QuadcoreParams &p,
        const std::string &per_ref_tag)
{
    if (per_ref_tag.empty())
        return runQuadcore(bench, p);
    RunObservatory observatory(perRefOptions(per_ref_tag));
    return runQuadcore(bench, p, &observatory);
}

QuadcoreRow
runWith(const std::string &bench, const std::string &per_ref_tag,
        uint64_t warmup = 0, const std::string &plan = "")
{
    QuadcoreParams p;
    p.instructionsPerBenchmark = 120'000;
    p.warmupInstructions = warmup;
    p.machine.faultPlan = plan;
    return runFeed(bench, p, per_ref_tag);
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
    // the batched feed's counter reset lands inside a chunk. Both
    // branches share the warm-up code, so the row is also pinned to
    // the one recorded from the separate per-reference, batched and
    // pipelined warm-up feeds this tee replaced.
    const QuadcoreRow per = runWith("179.art", "warmup", 37'777);
    expectRowsEqual(per, runWith("179.art", "", 37'777), "warmup");
    expectRowsEqual({"", "", 120'623, 7'549, 7'549, 7'549, 0, 0}, per,
                    "pinned warmup row");
}

TEST(BatchDeterminism, ArmedFaultPlanAgreesBatchedAndPerRef)
{
    // Injector ticks are per-reference, so the fault-armed machine
    // falls back to the scalar path internally — both feeds must
    // still see the identical fault timeline.
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
        ObserveOptions oo = m == 0 ? perRefOptions("journal")
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
    EXPECT_EQ(jsonl[0], jsonl[1]) << "batched journal diverged";
    ASSERT_FALSE(trace[0].empty());
    EXPECT_EQ(trace[0], trace[1]) << "batched trace diverged";
}

TEST(BatchDeterminism, SweepTextIdenticalAcrossJobsBatchedAndPerRef)
{
    const std::vector<std::string> benches = {"179.art", "181.mcf",
                                              "em3d"};
    auto sweepText = [&](bool per_ref, unsigned jobs) {
        SweepSpec spec;
        spec.cells = benches.size();
        spec.run = [&](size_t i) {
            QuadcoreParams p;
            p.instructionsPerBenchmark = 60'000;
            const QuadcoreRow r = runFeed(
                benches[i], p,
                per_ref ? "sweep_" + std::to_string(jobs) + "_" +
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
    for (const bool per_ref : {false, true}) {
        for (const unsigned jobs : {1u, 3u, 8u}) {
            if (per_ref && jobs == 1)
                continue; // the reference itself
            EXPECT_EQ(reference, sweepText(per_ref, jobs))
                << (per_ref ? "per-ref" : "batched")
                << " jobs=" << jobs;
        }
    }
}

TEST(BatchDeterminism, EngineBatchMatchesScalarAndChunkSplits)
{
    EngineConfig ec;
    ec.windowSize = 128;
    AffinityCacheConfig ac;
    SoaAffinityStore sa(ac), sb(ac);
    AffinityEngine a(ec, sa), b(ec, sb);
    CircularStream stream(4000);
    std::vector<uint64_t> lines;
    for (int i = 0; i < 1000; ++i)
        lines.push_back(stream.next());

    std::vector<RefOutcome> want;
    for (const uint64_t line : lines)
        want.push_back(a.reference(line));

    // Odd chunk lengths: splits never align with K = 64.
    std::vector<RefOutcome> got(lines.size());
    size_t at = 0;
    for (const size_t k : {64u, 36u, 7u, 129u, 1u, 763u}) {
        b.referenceBatch(lines.data() + at, k, got.data() + at);
        at += k;
    }
    ASSERT_EQ(at, lines.size());
    for (size_t i = 0; i < lines.size(); ++i) {
        ASSERT_EQ(want[i].ae, got[i].ae) << "ref " << i;
        ASSERT_EQ(want[i].inWindow, got[i].inWindow) << "ref " << i;
    }
    EXPECT_EQ(a.checkpoint().windowAffinity,
              b.checkpoint().windowAffinity);
    EXPECT_EQ(a.checkpoint().delta, b.checkpoint().delta);
    EXPECT_EQ(a.checkpoint().sumIe, b.checkpoint().sumIe);
}

TEST(BatchDeterminism, EngineBatchFallbackArmMatchesScalar)
{
    // DistinctLru windows take referenceBatch()'s exact scalar
    // fallback arm — it must agree with reference() too.
    EngineConfig ec;
    ec.windowSize = 64;
    ec.window = WindowKind::DistinctLru;
    AffinityCacheConfig ac;
    SoaAffinityStore sa(ac), sb(ac);
    AffinityEngine a(ec, sa), b(ec, sb);
    CircularStream stream(500);
    std::vector<uint64_t> lines;
    for (int i = 0; i < 400; ++i)
        lines.push_back(stream.next());
    std::vector<RefOutcome> got(lines.size());
    b.referenceBatch(lines.data(), lines.size(), got.data());
    for (size_t i = 0; i < lines.size(); ++i) {
        const RefOutcome want = a.reference(lines[i]);
        ASSERT_EQ(want.ae, got[i].ae) << "ref " << i;
        ASSERT_EQ(want.inWindow, got[i].inWindow) << "ref " << i;
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

    // 64 + 36: checkpoint lands on a chunk boundary of the first call
    // but mid-stream of the logical 100-reference batch.
    std::vector<RefOutcome> out(lines.size());
    b.referenceBatch(lines.data(), 64, out.data());
    const EngineCheckpoint ckpt = b.checkpoint();
    std::vector<OeEntrySnapshot> entries;
    sb.snapshotEntries(entries);
    const OeStoreStats storeStats = sb.stats();
    b.referenceBatch(lines.data() + 64, 36, out.data() + 64);

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

    // a: scalar; b: odd-length batches. Checkpoint both mid-stream.
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
    // machines and drive one scalar, one batched: they must stay in
    // lockstep to the end of the stream.
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

} // namespace xmig
