#include "multicore/tenant_sched.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace xmig {

CacheAppetite
classifyAppetite(const TenantProbe &probe, double light_mpki,
                 double thrash_mpki)
{
    XMIG_ASSERT(light_mpki <= thrash_mpki,
                "appetite thresholds inverted: light %f > thrash %f",
                light_mpki, thrash_mpki);
    const double mpki = probe.missesPerKiloInstr();
    if (mpki <= light_mpki)
        return CacheAppetite::Light;
    if (mpki >= thrash_mpki)
        return CacheAppetite::Thrashing;
    return CacheAppetite::Sensitive;
}

const char *
l3PolicyName(L3Policy policy)
{
    switch (policy) {
      case L3Policy::Unpartitioned:
        return "unpartitioned";
      case L3Policy::WayClustered:
        return "way_clustered";
    }
    return "unknown";
}

std::vector<ClusterSpec>
clusterTenants(const std::vector<TenantProbe> &probes,
               unsigned total_ways, double light_mpki,
               double thrash_mpki)
{
    XMIG_ASSERT(total_ways >= 1, "cannot cluster zero L3 ways");
    std::vector<unsigned> light;
    std::vector<unsigned> sensitive;
    std::vector<unsigned> thrashing;
    for (unsigned i = 0; i < probes.size(); ++i) {
        switch (classifyAppetite(probes[i], light_mpki, thrash_mpki)) {
          case CacheAppetite::Light:
            light.push_back(i);
            break;
          case CacheAppetite::Sensitive:
            sensitive.push_back(i);
            break;
          case CacheAppetite::Thrashing:
            thrashing.push_back(i);
            break;
        }
    }

    // A single-class population cannot be separated usefully: one
    // cluster of every way is exactly the unpartitioned cache, and
    // keeping it that way avoids shrinking anyone for no benefit.
    const bool oneClass =
        (light.empty() && sensitive.empty()) ||
        (light.empty() && thrashing.empty()) ||
        (sensitive.empty() && thrashing.empty());
    if (probes.empty() || oneClass || total_ways < 2) {
        ClusterSpec all;
        all.ways = total_ways;
        for (unsigned i = 0; i < probes.size(); ++i)
            all.tenants.push_back(i);
        return {all};
    }

    // LFOC's core move: thrashing tenants stream through whatever
    // they are given, so jailing them in a minimal cluster costs them
    // almost nothing and protects everyone else. Light tenants fit in
    // a small cluster. Sensitive tenants split the remainder in
    // proportion to appetite (heavier probe → more ways).
    std::vector<ClusterSpec> clusters;
    unsigned waysLeft = total_ways;
    const unsigned jailWays =
        thrashing.empty() ? 0
                          : std::max(1u, total_ways / 8);
    const unsigned lightWays =
        light.empty() ? 0 : std::max(1u, total_ways / 8);

    if (!thrashing.empty()) {
        ClusterSpec jail;
        jail.ways = jailWays;
        jail.tenants = thrashing;
        clusters.push_back(jail);
        waysLeft -= jailWays;
    }
    if (!light.empty()) {
        ClusterSpec small;
        small.ways = std::min(lightWays, waysLeft);
        small.tenants = light;
        clusters.push_back(small);
        waysLeft -= small.ways;
    }
    if (!sensitive.empty()) {
        // Proportional split with index-order remainder distribution
        // (deterministic; no floating-point order dependence).
        double totalMpki = 0.0;
        for (unsigned i : sensitive)
            totalMpki += probes[i].missesPerKiloInstr();
        unsigned granted = 0;
        std::vector<unsigned> shares(sensitive.size(), 0);
        for (size_t k = 0; k < sensitive.size(); ++k) {
            const double mpki =
                probes[sensitive[k]].missesPerKiloInstr();
            const double frac = totalMpki > 0.0
                                    ? mpki / totalMpki
                                    : 1.0 / static_cast<double>(
                                                sensitive.size());
            shares[k] = std::max(
                1u, static_cast<unsigned>(
                        std::floor(frac * waysLeft)));
            granted += shares[k];
        }
        // Clamp overshoot, then hand leftover ways out in index
        // order so the total is exactly waysLeft.
        while (granted > waysLeft) {
            for (size_t k = sensitive.size(); k-- > 0 &&
                                              granted > waysLeft;) {
                if (shares[k] > 1) {
                    --shares[k];
                    --granted;
                }
            }
            if (granted > waysLeft)
                break; // every share is already 1
        }
        for (size_t k = 0; granted < waysLeft;
             k = (k + 1) % sensitive.size()) {
            ++shares[k];
            ++granted;
        }
        for (size_t k = 0; k < sensitive.size(); ++k) {
            ClusterSpec own;
            own.ways = shares[k];
            own.tenants = {sensitive[k]};
            clusters.push_back(own);
        }
    } else if (waysLeft > 0 && !clusters.empty()) {
        // No sensitive class: return the remainder to the last
        // cluster rather than wasting capacity.
        clusters.back().ways += waysLeft;
    }

    unsigned total = 0;
    size_t covered = 0;
    for (const ClusterSpec &c : clusters) {
        total += c.ways;
        covered += c.tenants.size();
    }
    XMIG_AUDIT(total <= total_ways && covered == probes.size(),
               "way clustering leaked: %u/%u ways, %zu/%zu tenants",
               total, total_ways, covered, probes.size());
    return clusters;
}

TenantScheduler::TenantScheduler(TenantSchedConfig config,
                                 const std::vector<TenantProbe> &probes)
    : config_(std::move(config)),
      finished_(probes.size(), false)
{
    XMIG_ASSERT(config_.maxResident >= 1,
                "scheduler needs at least one resident slot");
    XMIG_ASSERT(config_.quantumRefs >= 1,
                "scheduler quantum must be positive");
    // Co-location order: sort by appetite descending (ties by index),
    // then interleave heaviest / lightest so each admitted group
    // mixes appetites instead of stacking the hungry tenants.
    std::vector<unsigned> byAppetite(probes.size());
    for (unsigned i = 0; i < probes.size(); ++i)
        byAppetite[i] = i;
    std::stable_sort(byAppetite.begin(), byAppetite.end(),
                     [&probes](unsigned a, unsigned b) {
                         return probes[a].missesPerKiloInstr() >
                                probes[b].missesPerKiloInstr();
                     });
    scores_.resize(probes.size());
    for (unsigned i = 0; i < probes.size(); ++i)
        scores_[i] = probes[i].missesPerKiloInstr();
    size_t lo = 0;
    size_t hi = byAppetite.size();
    bool takeHeavy = true;
    while (lo < hi) {
        if (takeHeavy)
            waiting_.push_back(byAppetite[lo++]);
        else
            waiting_.push_back(byAppetite[--hi]);
        takeHeavy = !takeHeavy;
    }
}

bool
TenantScheduler::allFinished() const
{
    return residents_.empty() && waiting_.empty();
}

unsigned
TenantScheduler::admitNext()
{
    if (waiting_.empty() || residents_.size() >= config_.maxResident)
        return kNone;
    const unsigned tenant = waiting_.front();
    waiting_.erase(waiting_.begin());
    residents_.push_back(tenant);
    XMIG_AUDIT(!finished_[tenant],
               "tenant %u admitted after finishing", tenant);
    return tenant;
}

double
TenantScheduler::colocationScore(unsigned tenant) const
{
    XMIG_ASSERT(tenant < scores_.size(),
                "co-location score for unknown tenant %u", tenant);
    return scores_[tenant];
}

unsigned
TenantScheduler::nextTurn()
{
    if (residents_.empty())
        return kNone;
    rrCursor_ %= residents_.size();
    const unsigned tenant = residents_[rrCursor_];
    rrCursor_ = (rrCursor_ + 1) % residents_.size();
    XMIG_AUDIT(tenant < finished_.size() && !finished_[tenant],
               "turn granted to finished or unknown tenant %u", tenant);
    return tenant;
}

void
TenantScheduler::onFinish(unsigned tenant)
{
    XMIG_ASSERT(tenant < finished_.size(),
                "finish for unknown tenant %u", tenant);
    XMIG_ASSERT(!finished_[tenant], "tenant %u finished twice",
                tenant);
    finished_[tenant] = true;
    auto it = std::find(residents_.begin(), residents_.end(), tenant);
    XMIG_ASSERT(it != residents_.end(),
                "tenant %u finished while not resident", tenant);
    const size_t pos =
        static_cast<size_t>(it - residents_.begin());
    residents_.erase(it);
    // Keep the rotation pointed at the same successor.
    if (pos < rrCursor_)
        --rrCursor_;
    if (!residents_.empty())
        rrCursor_ %= residents_.size();
    else
        rrCursor_ = 0;
}

double
unfairness(const std::vector<double> &slowdowns)
{
    double lo = 0.0;
    double hi = 0.0;
    for (double s : slowdowns) {
        if (s <= 0.0)
            continue;
        if (lo == 0.0 || s < lo)
            lo = s;
        if (s > hi)
            hi = s;
    }
    if (lo <= 0.0)
        return 1.0;
    return hi / lo;
}

double
jainFairnessIndex(const std::vector<double> &slowdowns)
{
    double sum = 0.0;
    double sumSq = 0.0;
    size_t n = 0;
    for (double s : slowdowns) {
        if (s <= 0.0)
            continue;
        const double x = 1.0 / s;
        sum += x;
        sumSq += x * x;
        ++n;
    }
    if (n == 0 || sumSq <= 0.0)
        return 1.0;
    return (sum * sum) / (static_cast<double>(n) * sumSq);
}

} // namespace xmig
