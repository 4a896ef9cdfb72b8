#include "cache/cache.hpp"

#include "util/contracts.hpp"

namespace xmig {

namespace {

FrameArray
makeFrames(const CacheConfig &config)
{
    const uint64_t lines = config.numLines();
    XMIG_ASSERT(lines >= config.ways && lines % config.ways == 0,
                "capacity %llu lines not divisible by %u ways",
                (unsigned long long)lines, config.ways);
    return FrameArray(lines / config.ways, config.ways, config.skewed,
                      config.repl, config.seed);
}

} // namespace

Cache::Cache(const CacheConfig &config)
    : config_(config),
      frames_(makeFrames(config))
{
}

uint32_t
Cache::install(uint64_t line, const Slots &s, AccessOutcome &out)
{
    FrameArray::Eviction victim;
    const uint32_t f = frames_.allocate(line, s, victim);
    out.filled = true;
    out.frame = f;
    if (victim.valid) {
        out.evictedValid = true;
        out.evictedLine = victim.line;
        if (victim.modified) {
            out.writeback = true;
            ++stats_.writebacks;
        }
    }
    return f;
}

void
Cache::missPath(uint64_t line, const Slots &s, bool is_store,
                AccessOutcome &out)
{
    ++stats_.misses;
    if (is_store && config_.write == WritePolicy::WriteThroughNoAllocate) {
        out.writeThrough = true;
        return;
    }
    const uint32_t f = install(line, s, out);
    if (is_store)
        frames_.setModified(f, true);
}

AccessOutcome
Cache::fill(uint64_t line, bool modified)
{
    AccessOutcome out;
    const Slots s = frames_.slots(line);
    const uint32_t hit = frames_.find(line, s);
    if (hit != kNoFrame) {
        if (modified)
            frames_.setModified(hit, true);
        out.hit = true;
        out.frame = hit;
        return out;
    }
    frames_.setModified(install(line, s, out), modified);
    return out;
}

uint64_t
Cache::invalidateAll()
{
    uint64_t dirty = 0;
    frames_.forEachValid([&](uint32_t f) {
        dirty += frames_.modified(f) ? 1 : 0;
        frames_.invalidateFrame(f);
    });
    return dirty;
}

} // namespace xmig
