/**
 * @file
 * Microbenchmarks (google-benchmark): throughput of the core data
 * structures — affinity engine variants, splitters, cache models,
 * LRU stack, hashes, and the whole migration machine per reference.
 */

#include <benchmark/benchmark.h>

#include "cache/cache.hpp"
#include "cache/fully_assoc.hpp"
#include "cache/lru_stack.hpp"
#include "core/kway_splitter.hpp"
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
    LruStack stack;
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(stack.access(rng.below(100000)));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruStack);

static void
BM_MigrationMachineBatch(benchmark::State &state)
{
    MachineConfig mc;
    MigrationMachine machine(mc);
    auto workload = makeWorkload("179.art");
    RefRecorder recorder;
    workload->run(recorder, 200'000, 42);
    const std::vector<MemRef> &refs = recorder.refs();
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

BENCHMARK_MAIN();
