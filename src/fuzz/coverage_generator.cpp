#include "fuzz/coverage_generator.hpp"

#include <algorithm>
#include <utility>

#include "util/contracts.hpp"
#include "util/logging.hpp"

namespace xmig {

namespace {

/** Every actuator site, in enum order (deterministic pick order). */
constexpr FaultSite kAllSites[] = {
    FaultSite::Ae,       FaultSite::Delta,   FaultSite::Ar,
    FaultSite::OeEntry,  FaultSite::CacheTag, FaultSite::MigDrop,
    FaultSite::MigDelay, FaultSite::BusDrop, FaultSite::CoreOff,
    FaultSite::CoreOn,
};

constexpr size_t kSiteCount = sizeof(kAllSites) / sizeof(kAllSites[0]);

/**
 * Probability of composing a fresh plan instead of mutating a corpus
 * entry (exploration vs exploitation). Corpus-empty draws are always
 * fresh.
 */
constexpr double kFreshBias = 0.3;

/**
 * Probability that a guided statement uses hot value ranges
 * (rates/ticks that reliably fire within a case) instead of the
 * boundary-biased full ranges.
 */
constexpr double kHotBias = 0.8;

/** Corpus capacity; oldest entries are evicted first. */
constexpr size_t kMaxCorpus = 64;

/** Last '.'-separated segment of a metric path. */
std::string
leafOf(const std::string &path)
{
    const size_t dot = path.rfind('.');
    return dot == std::string::npos ? path : path.substr(dot + 1);
}

/**
 * Weight contribution of one counter: a site associated with an
 * unlit counter is strongly boosted; once lit, the boost decays as
 * the counter climbs magnitude buckets (so guidance keeps pushing
 * for 2x-4x-8x, then moves on).
 */
uint64_t
deficitOf(unsigned max_bucket)
{
    if (max_bucket == 0)
        return 8;
    return max_bucket < 6 ? 6 - max_bucket : 0;
}

} // namespace

std::vector<FaultSite>
CoverageGuidedGenerator::sitesFor(const std::string &path)
{
    const std::string leaf = leafOf(path);

    // Injection counters name their site directly.
    if (path.find(".faults.injected.") != std::string::npos) {
        for (const FaultSite s : kAllSites) {
            if (leaf == faultSiteName(s))
                return {s};
        }
        return {};
    }

    // Recovery and machine-event counters: which statements reach
    // them. Rejoin-side counters need a core_off first, so they map
    // to both churn directions.
    struct Edge
    {
        const char *leaf;
        FaultSite sites[2];
        unsigned n;
    };
    static const Edge kEdges[] = {
        {"cores_lost", {FaultSite::CoreOff, FaultSite::CoreOff}, 1},
        {"cores_joined", {FaultSite::CoreOff, FaultSite::CoreOn}, 2},
        {"resplits", {FaultSite::CoreOff, FaultSite::CoreOn}, 2},
        {"forced_migrations",
         {FaultSite::CoreOff, FaultSite::CoreOff}, 1},
        {"store_corruptions",
         {FaultSite::OeEntry, FaultSite::OeEntry}, 1},
        {"store_drops", {FaultSite::CacheTag, FaultSite::CacheTag}, 1},
        {"mig_dropped", {FaultSite::MigDrop, FaultSite::MigDrop}, 1},
        {"mig_delayed", {FaultSite::MigDelay, FaultSite::MigDelay}, 1},
        {"mig_timeouts", {FaultSite::MigDrop, FaultSite::MigDrop}, 1},
        {"mig_retries", {FaultSite::MigDrop, FaultSite::MigDrop}, 1},
        {"core_off_events",
         {FaultSite::CoreOff, FaultSite::CoreOff}, 1},
        {"core_on_events", {FaultSite::CoreOff, FaultSite::CoreOn}, 2},
        {"dirty_lines_lost",
         {FaultSite::CoreOff, FaultSite::CoreOff}, 1},
        {"bus_drops", {FaultSite::BusDrop, FaultSite::BusDrop}, 1},
        {"coherence_repairs",
         {FaultSite::BusDrop, FaultSite::BusDrop}, 1},
    };
    for (const Edge &e : kEdges) {
        if (leaf == e.leaf)
            return {e.sites, e.sites + e.n};
    }
    // Watchdog counters (and anything unrecognized): no statement
    // forces them — they stay out of the bandit.
    return {};
}

CoverageGuidedGenerator::CoverageGuidedGenerator(
    uint64_t seed, std::vector<std::string> workloadPool)
    : workloadPool_(std::move(workloadPool)), gen_(seed),
      rng_(seed ^ 0xd1b54a32d192ed03ULL), weights_(kSiteCount)
{
}

void
CoverageGuidedGenerator::reweigh(const CoverageMap &coverage)
{
    // Fold the coverage map into per-site weights. Before the first
    // case the map is empty and the pick is uniform.
    std::fill(weights_.begin(), weights_.end(), 1);
    for (const std::string &path : coverage.paths()) {
        const uint64_t deficit = deficitOf(coverage.maxBucketOf(path));
        if (deficit == 0)
            continue;
        for (const FaultSite site : sitesFor(path)) {
            for (size_t s = 0; s < kSiteCount; ++s) {
                if (kAllSites[s] == site)
                    weights_[s] += deficit;
            }
        }
    }
}

FaultSite
CoverageGuidedGenerator::pickSite()
{
    uint64_t total = 0;
    for (const uint64_t w : weights_)
        total += w;
    uint64_t r = rng_.below(total);
    for (size_t s = 0; s < kSiteCount; ++s) {
        if (r < weights_[s])
            return kAllSites[s];
        r -= weights_[s];
    }
    return kAllSites[kSiteCount - 1]; // unreachable
}

void
CoverageGuidedGenerator::appendGuided(std::vector<std::string> &out,
                                      uint64_t &tick)
{
    const FaultSite site = pickSite();
    const bool hot = rng_.chance(kHotBias);
    if ((site == FaultSite::CoreOff || site == FaultSite::CoreOn) &&
        rng_.chance(0.5)) {
        // The rejoin counters (cores_joined, resplits) need an off/on
        // pair on the same core; reuse the tested churn shapes.
        gen_.appendChurn(out, tick);
        return;
    }
    out.push_back(gen_.statementFor(site, tick, hot));
}

FuzzPlan
CoverageGuidedGenerator::compose()
{
    FuzzPlan plan;
    plan.statements.push_back("seed=" +
                              std::to_string(rng_.next() >> 1));
    const unsigned budget = static_cast<unsigned>(
        rng_.inRange(2, gen_.config().maxStatements));
    uint64_t tick =
        rng_.below(PlanGenerator::kTickHorizon / 2 + 1);
    while (plan.statements.size() - 1 < budget)
        appendGuided(plan.statements, tick);
    return plan;
}

FuzzPlan
CoverageGuidedGenerator::mutate(const std::string &spec)
{
    // Split the corpus plan back into statements.
    FuzzPlan plan;
    std::string cur;
    for (const char c : spec) {
        if (c == ';') {
            plan.statements.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    plan.statements.push_back(cur);

    // Fresh injector seed: the interesting part of a corpus entry is
    // its statement shape, not the exact fault dice.
    if (!plan.statements.empty() &&
        plan.statements.front().rfind("seed=", 0) == 0)
        plan.statements.front() =
            "seed=" + std::to_string(rng_.next() >> 1);

    uint64_t tick = rng_.below(PlanGenerator::kTickHorizon / 2 + 1);
    const uint64_t mutations = rng_.inRange(1, 3);
    for (uint64_t m = 0; m < mutations; ++m) {
        switch (rng_.below(4)) {
          case 0:
          case 1:
            appendGuided(plan.statements, tick);
            break;
          case 2:
            if (plan.statements.size() > 2) {
                const size_t pick =
                    1 + rng_.below(plan.statements.size() - 1);
                plan.statements.erase(plan.statements.begin() +
                                      static_cast<long>(pick));
            }
            break;
          default:
            if (plan.statements.size() > 1) {
                const size_t pick =
                    1 + rng_.below(plan.statements.size() - 1);
                plan.statements.push_back(plan.statements[pick]);
            }
            break;
        }
    }

    // Keep mutated plans from growing without bound.
    const size_t cap =
        static_cast<size_t>(gen_.config().maxStatements) + 5;
    while (plan.statements.size() > cap)
        plan.statements.erase(plan.statements.begin() + 1);
    return plan;
}

std::string
CoverageGuidedGenerator::pickBenchmark(const std::string &fallback)
{
    if (workloadPool_.empty())
        return fallback;
    return workloadPool_[rng_.below(workloadPool_.size())];
}

FuzzCase
CoverageGuidedGenerator::next(const std::string &benchmark,
                              uint64_t instructions,
                              const CoverageMap &coverage)
{
    reweigh(coverage);
    FuzzPlan plan;
    if (!corpus_.empty() && !rng_.chance(kFreshBias)) {
        const size_t pick = rng_.below(corpus_.size());
        plan = mutate(corpus_[pick]);
    } else {
        plan = compose();
    }

    FuzzCase c;
    c.plan = plan.spec();
    c.benchmark = pickBenchmark(benchmark);
    c.workloadSeed = rng_.next() >> 1;
    c.instructions = instructions;

    // Same contract as PlanGenerator::next(): every emitted plan must
    // parse — mutation operates on whole statements, so a failure
    // here is a generator bug, not bad luck.
    FaultPlan parsed;
    std::string error;
    if (!FaultPlan::parse(c.plan, &parsed, &error))
        XMIG_PANIC("guided generator emitted an unparseable plan "
                   "'%s': %s",
                   c.plan.c_str(), error.c_str());
    return c;
}

void
CoverageGuidedGenerator::admit(const FuzzCase &c)
{
    corpus_.push_back(c.plan);
    if (corpus_.size() > kMaxCorpus)
        corpus_.erase(corpus_.begin());
}

} // namespace xmig
