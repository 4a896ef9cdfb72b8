/**
 * @file
 * Unit tests for the L1 filtering level (section 4.1 and 4.2 modes).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cache/l1_filter.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace xmig {
namespace {

struct CaptureSink : LineSink
{
    std::vector<LineEvent> events;
    void onLine(const LineEvent &e) override { events.push_back(e); }
};

L1FilterConfig
smallConfig(bool fully, bool unified)
{
    L1FilterConfig c;
    c.il1Bytes = 4 * 64; // 4 lines each
    c.dl1Bytes = 4 * 64;
    c.lineBytes = 64;
    c.fullyAssociative = fully;
    c.ways = 2;
    c.unifiedReadWrite = unified;
    return c;
}

TEST(L1Filter, ForwardsMissesOnlyOncePerResidentLine)
{
    CaptureSink sink;
    L1Filter filter(smallConfig(true, true), sink);
    filter.access(MemRef::load(0x1000));
    filter.access(MemRef::load(0x1000)); // hit: not forwarded
    filter.access(MemRef::load(0x1010)); // same line: hit
    ASSERT_EQ(sink.events.size(), 1u);
    EXPECT_EQ(sink.events[0].line, 0x1000u / 64);
    EXPECT_TRUE(sink.events[0].l1Miss);
}

TEST(L1Filter, SeparatesInstructionAndDataCaches)
{
    CaptureSink sink;
    L1Filter filter(smallConfig(true, true), sink);
    filter.access(MemRef::ifetch(0x2000));
    // Same line as a data ref still misses: different cache.
    filter.access(MemRef::load(0x2000));
    EXPECT_EQ(sink.events.size(), 2u);
    EXPECT_EQ(filter.il1Stats().misses, 1u);
    EXPECT_EQ(filter.dl1Stats().misses, 1u);
}

TEST(L1Filter, UnifiedModeTreatsStoresAsLoads)
{
    CaptureSink sink;
    L1Filter filter(smallConfig(true, true), sink);
    filter.access(MemRef::store(0x1000)); // miss: allocates
    filter.access(MemRef::store(0x1000)); // hit: silent
    EXPECT_EQ(sink.events.size(), 1u);
}

TEST(L1Filter, WriteThroughForwardsEveryStore)
{
    CaptureSink sink;
    L1Filter filter(smallConfig(false, false), sink);
    filter.access(MemRef::load(0x1000));  // miss, forwarded
    filter.access(MemRef::store(0x1000)); // WT hit: forwarded too
    ASSERT_EQ(sink.events.size(), 2u);
    EXPECT_TRUE(sink.events[0].l1Miss);
    EXPECT_FALSE(sink.events[1].l1Miss); // store hit, not a miss
    EXPECT_EQ(sink.events[1].type, RefType::Store);
}

TEST(L1Filter, WriteThroughStoreMissDoesNotAllocate)
{
    CaptureSink sink;
    L1Filter filter(smallConfig(false, false), sink);
    filter.access(MemRef::store(0x1000)); // NWA miss
    filter.access(MemRef::store(0x1000)); // still a miss
    ASSERT_EQ(sink.events.size(), 2u);
    EXPECT_TRUE(sink.events[0].l1Miss);
    EXPECT_TRUE(sink.events[1].l1Miss);
}

TEST(L1Filter, LruEvictionInFullyAssociativeMode)
{
    CaptureSink sink;
    L1Filter filter(smallConfig(true, true), sink);
    // Fill the 4-line DL1, then re-touch line 0 and add a 5th line:
    // line 1 is the LRU victim, so touching line 0 again still hits.
    for (uint64_t l = 0; l < 4; ++l)
        filter.access(MemRef::load(l * 64));
    filter.access(MemRef::load(0));
    filter.access(MemRef::load(4 * 64));
    sink.events.clear();
    filter.access(MemRef::load(0)); // must still hit
    EXPECT_TRUE(sink.events.empty());
    filter.access(MemRef::load(64)); // line 1 was evicted: miss
    EXPECT_EQ(sink.events.size(), 1u);
}

TEST(L1Filter, LineSizeRespected)
{
    CaptureSink sink;
    L1FilterConfig c = smallConfig(true, true);
    c.lineBytes = 128;
    L1Filter filter(c, sink);
    filter.access(MemRef::load(0x1000));
    filter.access(MemRef::load(0x1040)); // same 128-B line
    EXPECT_EQ(sink.events.size(), 1u);
    EXPECT_EQ(filter.geometry().lineBytes(), 128u);
}

/**
 * The L1 level without the repeat-line short-circuit: a bare IL1/DL1
 * pair probed on every reference, with the filter's write policies.
 */
class BareL1
{
  public:
    explicit BareL1(const L1FilterConfig &c)
        : fully_(c.fullyAssociative),
          writeThrough_(!c.unifiedReadWrite)
    {
        if (fully_) {
            faIl1_ = std::make_unique<FullyAssocLru>(c.il1Bytes / c.lineBytes);
            faDl1_ = std::make_unique<FullyAssocLru>(c.dl1Bytes / c.lineBytes);
            return;
        }
        CacheConfig cc;
        cc.capacityBytes = c.il1Bytes;
        cc.ways = c.ways;
        cc.lineBytes = c.lineBytes;
        saIl1_ = std::make_unique<Cache>(cc);
        cc.capacityBytes = c.dl1Bytes;
        if (writeThrough_)
            cc.write = WritePolicy::WriteThroughNoAllocate;
        saDl1_ = std::make_unique<Cache>(cc);
    }

    /** Probe `ref`'s line (64-B lines); true on a hit. */
    bool
    access(const MemRef &ref)
    {
        const uint64_t line = ref.addr / 64;
        if (fully_)
            return (ref.isIfetch() ? *faIl1_ : *faDl1_).access(line);
        const bool is_store = writeThrough_ && ref.isStore();
        return (ref.isIfetch() ? *saIl1_ : *saDl1_)
            .access(line, is_store)
            .hit;
    }

    bool
    contains(bool ifetch, uint64_t line) const
    {
        if (fully_)
            return (ifetch ? *faIl1_ : *faDl1_).contains(line);
        return (ifetch ? *saIl1_ : *saDl1_).contains(line);
    }

    const CacheStats &
    stats(bool ifetch) const
    {
        if (fully_)
            return (ifetch ? *faIl1_ : *faDl1_).stats();
        return (ifetch ? *saIl1_ : *saDl1_).stats();
    }

  private:
    bool fully_;
    bool writeThrough_;
    std::unique_ptr<FullyAssocLru> faIl1_, faDl1_;
    std::unique_ptr<Cache> saIl1_, saDl1_;
};

/**
 * True if `line` is resident in the filter's IL1 (`ifetch`) or DL1
 * after the first `p` references of `stream`: replay them into a fresh
 * filter, then probe the line with a non-store, which hits exactly
 * when the line is resident.
 */
bool
residentAfter(const L1FilterConfig &c, const std::vector<MemRef> &stream,
              size_t p, bool ifetch, uint64_t line)
{
    CaptureSink sink;
    L1Filter filter(c, sink);
    for (size_t i = 0; i < p; ++i)
        filter.access(stream[i]);
    sink.events.clear();
    filter.access(ifetch ? MemRef::ifetch(line * 64)
                         : MemRef::load(line * 64));
    return sink.events.empty();
}

/**
 * Repeats of an L1's last line, then evictions in its set: hand-built
 * cases first (a repeat before an LRU eviction, write-through store
 * misses between repeats, a store hit on a repeat), then seeded
 * references that repeat the previous line half the time. Lines 0-8
 * even share set 0 of the 2-set small config; line 1 sits in set 1.
 */
std::vector<MemRef>
repeatStream()
{
    std::vector<MemRef> s;
    auto I = [&](uint64_t l) { s.push_back(MemRef::ifetch(l * 64)); };
    auto L = [&](uint64_t l) { s.push_back(MemRef::load(l * 64)); };
    auto S = [&](uint64_t l) { s.push_back(MemRef::store(l * 64)); };
    for (uint64_t l : {0, 0, 0, 2, 0, 0, 4, 2, 2, 6, 0, 1, 1, 0})
        I(l);
    for (uint64_t l : {0, 0, 0, 2, 0, 0, 4, 2, 2, 6, 0, 1, 1, 0})
        L(l);
    S(6), L(0), S(6), L(0), S(0), S(0), L(0), L(4), L(4), S(4), L(8);
    L(0), S(2), S(2), L(6), I(0), L(0), I(8), L(8), I(8);
    Rng rng(0x5e9ea7);
    const uint64_t lines[] = {0, 2, 4, 6, 8, 1};
    for (int i = 0; i < 150; ++i) {
        MemRef r = s.back();
        if (rng.below(2) == 0)
            r.addr = lines[rng.below(std::size(lines))] * 64;
        if (rng.below(3) == 0)
            r.type = static_cast<RefType>(rng.below(3));
        s.push_back(r);
    }
    return s;
}

/**
 * The filter and a BareL1 see the same stream; after every reference
 * they must agree on the hit, the event, both L1s' stats and which of
 * the stream's lines each L1 holds (so every victim matches).
 */
void
expectSameAsBare(const L1FilterConfig &config)
{
    const std::vector<MemRef> stream = repeatStream();
    CaptureSink sink;
    L1Filter filter(config, sink);
    BareL1 bare(config);
    const bool write_through = !config.unifiedReadWrite;
    for (size_t i = 0; i < stream.size(); ++i) {
        SCOPED_TRACE("reference " + std::to_string(i));
        const MemRef &r = stream[i];
        sink.events.clear();
        filter.access(r);
        const bool hit = bare.access(r);
        const bool is_store = write_through && r.isStore();
        ASSERT_EQ(sink.events.size(), !hit || is_store ? 1u : 0u);
        if (!sink.events.empty()) {
            EXPECT_EQ(sink.events[0].l1Miss, !hit);
        }
        for (bool ifetch : {true, false}) {
            const CacheStats &f =
                ifetch ? filter.il1Stats() : filter.dl1Stats();
            const CacheStats &b = bare.stats(ifetch);
            EXPECT_EQ(f.accesses, b.accesses);
            EXPECT_EQ(f.hits, b.hits);
            EXPECT_EQ(f.misses, b.misses);
            for (uint64_t line : {0, 1, 2, 4, 6, 8}) {
                EXPECT_EQ(residentAfter(config, stream, i + 1, ifetch, line),
                          bare.contains(ifetch, line))
                    << (ifetch ? "IL1" : "DL1") << " line " << line;
            }
        }
    }
}

TEST(L1Filter, RepeatLineSkipKeepsVictims)
{
    {
        SCOPED_TRACE("set-associative LRU, write-through DL1");
        expectSameAsBare(smallConfig(false, false));
    }
    {
        SCOPED_TRACE("set-associative LRU, unified DL1");
        expectSameAsBare(smallConfig(false, true));
    }
    {
        SCOPED_TRACE("fully-associative LRU");
        expectSameAsBare(smallConfig(true, true));
    }
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

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** One post-L1 event with its reference index and ifetch prefix. */
uint64_t
eventMix(uint64_t hash, const LineEvent &e, uint64_t ref, uint64_t instr)
{
    hash = fnvMix(hash, e.line);
    hash = fnvMix(hash, static_cast<uint64_t>(e.type) |
                            uint64_t{e.l1Miss} << 8 |
                            uint64_t{e.pointer} << 9);
    hash = fnvMix(hash, ref);
    return fnvMix(hash, instr);
}

uint64_t
statsMix(uint64_t hash, const CacheStats &s)
{
    hash = fnvMix(hash, s.accesses);
    hash = fnvMix(hash, s.hits);
    hash = fnvMix(hash, s.misses);
    return fnvMix(hash, s.writebacks);
}

/**
 * Digest of `refs` through a fresh filter: every event with the index
 * of its reference and the number of ifetches up to and including that
 * reference, then the final IL1 and DL1 stats. `chunk` 0 feeds
 * access() one reference at a time; otherwise filterBatch() runs over
 * chunks of that many references.
 */
uint64_t
filterDigest(const L1FilterConfig &config, const std::vector<MemRef> &refs,
             size_t chunk)
{
    struct DigestSink : LineSink
    {
        uint64_t hash = kFnvBasis;
        uint64_t ref = 0;
        uint64_t instr = 0;
        void
        onLine(const LineEvent &e) override
        {
            hash = eventMix(hash, e, ref, instr);
        }
    } sink;
    L1Filter filter(config, sink);
    if (chunk == 0) {
        for (size_t i = 0; i < refs.size(); ++i) {
            sink.ref = i;
            sink.instr += refs[i].isIfetch() ? 1 : 0;
            filter.access(refs[i]);
        }
    } else {
        std::vector<LineEvent> events(chunk);
        std::vector<uint32_t> ev_ref(chunk), ev_instr(chunk);
        uint64_t base_instr = 0;
        for (size_t at = 0; at < refs.size(); at += chunk) {
            const size_t k = std::min(chunk, refs.size() - at);
            uint32_t ifetches = 0;
            const size_t m =
                filter.filterBatch(&refs[at], k, events.data(),
                                   ev_ref.data(), ev_instr.data(),
                                   &ifetches);
            for (size_t e = 0; e < m; ++e) {
                sink.hash = eventMix(sink.hash, events[e], at + ev_ref[e],
                                     base_instr + ev_instr[e]);
            }
            base_instr += ifetches;
        }
    }
    return statsMix(statsMix(sink.hash, filter.il1Stats()),
                    filter.dl1Stats());
}

/**
 * Every Table-1 and storm kernel, 200 k instructions at seed 42,
 * through `config`; each feed (access() and filterBatch() at chunk
 * sizes 1, 7 and 64) must reproduce `expected`, one digest folded
 * over the kernels in registry order.
 */
void
expectGoldenStreams(const L1FilterConfig &config, uint64_t expected)
{
    std::vector<std::string> names = allWorkloadNames();
    for (const std::string &n : adversarialWorkloadNames())
        names.push_back(n);
    for (size_t chunk : {0, 1, 7, 64}) {
        SCOPED_TRACE(chunk == 0 ? std::string("access()")
                                : "filterBatch chunk " +
                                      std::to_string(chunk));
        uint64_t hash = kFnvBasis;
        for (const std::string &name : names) {
            RefRecorder rec;
            makeWorkload(name)->run(rec, 200'000, 42);
            hash = fnvMix(hash, filterDigest(config, rec.refs(), chunk));
        }
        EXPECT_EQ(hash, expected) << std::hex << "got 0x" << hash;
    }
}

L1FilterConfig
paperConfig(bool fully, bool unified)
{
    L1FilterConfig c; // 16-KB IL1/DL1, 64-B lines
    c.fullyAssociative = fully;
    c.ways = 4;
    c.unifiedReadWrite = unified;
    return c;
}

/* Recorded at the two-body filter (separate access() and filterBatch()
 * loops) before the repeat-line short-circuit. */

TEST(L1FilterGolden, SetAssocWriteThroughStreams)
{
    expectGoldenStreams(paperConfig(false, false), 0xa7df7ab35bf8cadaull);
}

TEST(L1FilterGolden, SetAssocUnifiedStreams)
{
    expectGoldenStreams(paperConfig(false, true), 0x07d24e1ca8709069ull);
}

TEST(L1FilterGolden, FullyAssociativeStreams)
{
    expectGoldenStreams(paperConfig(true, true), 0x9b82d79c20a2927eull);
}

} // namespace
} // namespace xmig
