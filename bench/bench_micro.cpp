/**
 * @file
 * Microbenchmarks (google-benchmark): throughput of the core data
 * structures — affinity engine variants, splitters, cache models,
 * LRU stack, hashes — and of the per-reference layers over a recorded
 * 179.art prefix in 64-reference chunks: the L1 filter (also over a
 * storm.phase prefix), the migration controller, and the whole
 * migration machine.
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hpp"
#include "cache/fully_assoc.hpp"
#include "cache/l1_filter.hpp"
#include "cache/lru_stack.hpp"
#include "core/kway_splitter.hpp"
#include "core/migration_controller.hpp"
#include "core/oe_store.hpp"
#include "multicore/machine.hpp"
#include "util/hashing.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"
#include "workloads/synthetic.hpp"

using namespace xmig;

static void
BM_HashMod31(benchmark::State &state)
{
    uint64_t x = 0x123456789abcULL;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hashMod31(x));
        x += 64;
    }
}
BENCHMARK(BM_HashMod31);

static void
BM_SkewHash(benchmark::State &state)
{
    uint64_t x = 0x123456789abcULL;
    for (auto _ : state) {
        benchmark::DoNotOptimize(skewHash(x, 3, 2048));
        ++x;
    }
}
BENCHMARK(BM_SkewHash);

static void
BM_AffinityEngine(benchmark::State &state)
{
    EngineConfig ec;
    ec.windowSize = 128;
    ec.window = static_cast<WindowKind>(state.range(0));
    ec.ar = static_cast<ArKind>(state.range(1));
    UnboundedOeStore store(16);
    AffinityEngine engine(ec, store);
    CircularStream stream(4000);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.reference(stream.next()).ae);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AffinityEngine)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->ArgNames({"window", "ar"});

static void
BM_FourWaySplit(benchmark::State &state)
{
    KWaySplitter::Config c;
    c.depth = 2;
    UnboundedOeStore store(16);
    KWaySplitter splitter(c, store);
    CircularStream stream(20000);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            splitter.onReference(stream.next()).subset);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FourWaySplit);

static void
BM_SetAssocCache(benchmark::State &state)
{
    CacheConfig cc;
    cc.skewed = state.range(0) != 0;
    Cache cache(cc);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache.access(rng.below(16384), false).hit);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetAssocCache)->Arg(0)->Arg(1)->ArgName("skewed");

static void
BM_FullyAssocLru(benchmark::State &state)
{
    FullyAssocLru cache(256);
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.below(1024)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullyAssocLru);

static void
BM_LruStack(benchmark::State &state)
{
    // fig4_5's plotted sizes: 16 KB to 16 MB, doubling, in 64-B lines.
    std::vector<uint64_t> capacities;
    for (uint64_t lines = 256; lines <= 256 * 1024; lines *= 2)
        capacities.push_back(lines);
    LruStack stack(capacities);
    Rng rng(1);
    for (auto _ : state)
        stack.access(rng.below(100000));
    benchmark::DoNotOptimize(stack.missesAtSize(256));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruStack);

/** A recorded 200k-instruction prefix of kernel `name` at seed 42. */
static std::vector<MemRef>
recordPrefix(const char *name)
{
    RefRecorder recorder;
    makeWorkload(name)->run(recorder, 200'000, 42);
    return recorder.refs();
}

/** The 179.art prefix: the input of the batch microbenches. */
static const std::vector<MemRef> &
artPrefix()
{
    static const std::vector<MemRef> refs = recordPrefix("179.art");
    return refs;
}

/** A storm.phase prefix: the L1 under the storm workloads. */
static const std::vector<MemRef> &
stormPrefix()
{
    static const std::vector<MemRef> refs = recordPrefix("storm.phase");
    return refs;
}

/** The machine's L1 level (section 4.2): set-associative, with a
 *  write-through, non-write-allocate DL1. */
static L1FilterConfig
machineL1Config(const MachineConfig &mc)
{
    L1FilterConfig l1c;
    l1c.il1Bytes = mc.il1Bytes;
    l1c.dl1Bytes = mc.dl1Bytes;
    l1c.lineBytes = mc.lineBytes;
    l1c.fullyAssociative = false;
    l1c.ways = mc.l1Ways;
    l1c.unifiedReadWrite = false;
    return l1c;
}

static void
BM_MigrationMachineBatch(benchmark::State &state)
{
    MachineConfig mc;
    MigrationMachine machine(mc);
    const std::vector<MemRef> &refs = artPrefix();
    constexpr size_t kChunk = MigrationMachine::kBatchRefs;
    const size_t chunks = refs.size() / kChunk;
    size_t i = 0;
    for (auto _ : state) {
        machine.accessBatch(refs.data() + i * kChunk, kChunk);
        i = (i + 1) % chunks;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kChunk));
}
BENCHMARK(BM_MigrationMachineBatch);

/** The machine's L1 over 179.art (arg 0) or storm.phase (arg 1). */
static void
BM_L1FilterBatch(benchmark::State &state)
{
    NullLineSink sink;
    L1Filter l1(machineL1Config(MachineConfig{}), sink);
    const std::vector<MemRef> &refs =
        state.range(0) == 0 ? artPrefix() : stormPrefix();
    constexpr size_t kChunk = MigrationMachine::kBatchRefs;
    const size_t chunks = refs.size() / kChunk;
    LineEvent events[kChunk];
    uint32_t ref_idx[kChunk];
    uint32_t ev_instr[kChunk];
    uint32_t ifetch = 0;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(l1.filterBatch(refs.data() + i * kChunk,
                                                kChunk, events, ref_idx,
                                                ev_instr, &ifetch));
        benchmark::ClobberMemory();
        i = (i + 1) % chunks;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kChunk));
}
BENCHMARK(BM_L1FilterBatch)->Arg(0)->Arg(1)->ArgName("storm");

/**
 * The controller alone over the prefix's post-L1 requests, each with
 * the miss bit of one 512-KB skewed L2 — as xmig-bench's layer replay
 * feeds it (the machine probes whichever core's L2 is active).
 */
static void
BM_ControllerRequestBatch(benchmark::State &state)
{
    const MachineConfig mc;
    NullLineSink sink;
    L1Filter l1(machineL1Config(mc), sink);
    CacheConfig l2c;
    l2c.capacityBytes = mc.l2Bytes;
    l2c.ways = mc.l2Ways;
    l2c.lineBytes = mc.lineBytes;
    l2c.skewed = mc.l2Skewed;
    Cache l2(l2c);

    constexpr size_t kChunk = MigrationMachine::kBatchRefs;
    const std::vector<MemRef> &refs = artPrefix();
    std::vector<MigrationController::Request> reqs;
    LineEvent events[kChunk];
    uint32_t ref_idx[kChunk];
    uint32_t ev_instr[kChunk];
    uint32_t ifetch = 0;
    for (size_t r = 0; r + kChunk <= refs.size(); r += kChunk) {
        const size_t m = l1.filterBatch(refs.data() + r, kChunk, events,
                                        ref_idx, ev_instr, &ifetch);
        for (size_t e = 0; e < m; ++e) {
            const AccessOutcome o = l2.access(
                events[e].line, events[e].type == RefType::Store);
            reqs.push_back({events[e].line, !o.hit, events[e].pointer});
        }
    }

    MigrationController controller(mc.controller);
    const size_t chunks = reqs.size() / kChunk;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            controller.onRequestBatch(reqs.data() + i * kChunk, kChunk));
        i = (i + 1) % chunks;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kChunk));
}
BENCHMARK(BM_ControllerRequestBatch);

BENCHMARK_MAIN();
