#include "fuzz/minimizer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/contracts.hpp"

namespace xmig {

namespace {

/** Split a spec string into its ';'-separated statements. */
std::vector<std::string>
splitStatements(const std::string &spec)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= spec.size() && !spec.empty()) {
        size_t end = spec.find(';', pos);
        if (end == std::string::npos)
            end = spec.size();
        out.push_back(spec.substr(pos, end - pos));
        pos = end + 1;
    }
    return out;
}

std::string
joinStatements(const std::vector<std::string> &stmts)
{
    std::string out;
    for (const std::string &s : stmts) {
        if (!out.empty())
            out += ';';
        out += s;
    }
    return out;
}

/**
 * Shrunk variants of one statement, most aggressive first: `at=`
 * ticks jump to 0 then halve; `rate=` values jump to the smallest
 * still-firing-ish value then decay by half. Other statements have
 * no numeric trigger worth shrinking.
 */
std::vector<std::string>
shrinkVariants(const std::string &stmt)
{
    std::vector<std::string> out;
    const size_t colon = stmt.find(':');
    if (colon == std::string::npos)
        return out;
    const std::string event = stmt.substr(colon);

    if (stmt.rfind("at=", 0) == 0) {
        const uint64_t tick =
            std::strtoull(stmt.c_str() + 3, nullptr, 10);
        if (tick > 0)
            out.push_back("at=0" + event);
        if (tick > 1)
            out.push_back("at=" + std::to_string(tick / 2) + event);
    } else if (stmt.rfind("rate=", 0) == 0) {
        const double rate = std::strtod(stmt.c_str() + 5, nullptr);
        if (rate > 0.0) {
            out.push_back("rate=0" + event);
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.17g", rate / 2);
            out.push_back(std::string("rate=") + buf + event);
        }
    }
    return out;
}

} // namespace

std::vector<std::string>
ddmin(std::vector<std::string> items,
      const std::function<bool(const std::vector<std::string> &)> &fails,
      uint64_t max_probes, uint64_t &probes_io)
{
    size_t granularity = 2;
    while (items.size() >= 2 && probes_io < max_probes) {
        const size_t chunk =
            (items.size() + granularity - 1) / granularity;
        bool reduced = false;
        for (size_t start = 0;
             start < items.size() && probes_io < max_probes;
             start += chunk) {
            // Probe the complement of items[start, start+chunk).
            std::vector<std::string> candidate;
            candidate.reserve(items.size());
            for (size_t i = 0; i < items.size(); ++i) {
                if (i < start || i >= start + chunk)
                    candidate.push_back(items[i]);
            }
            if (candidate.empty())
                continue;
            ++probes_io;
            if (fails(candidate)) {
                items = std::move(candidate);
                granularity = std::max<size_t>(granularity - 1, 2);
                reduced = true;
                break;
            }
        }
        if (!reduced) {
            if (granularity >= items.size())
                break;
            granularity = std::min(granularity * 2, items.size());
        }
    }
    return items;
}

MinimizeResult
PlanMinimizer::minimize(const FuzzCase &failing,
                        const std::string &oracle) const
{
    MinimizeResult result;
    result.minimized = failing;
    result.oracle = oracle;

    const auto failsWith = [&](const std::string &spec) {
        FuzzCase probe = failing;
        probe.plan = spec;
        const CaseResult r = harness_.run(probe);
        return std::any_of(r.failures.begin(), r.failures.end(),
                           [&](const OracleFailure &f) {
                               return f.oracle == oracle;
                           });
    };

    // The failure must reproduce before any reduction is meaningful.
    ++result.probes;
    if (!failsWith(failing.plan))
        return result;
    result.stillFails = true;

    const auto failsList = [&](const std::vector<std::string> &stmts) {
        // Reject unparseable candidates without burning a run (a
        // dropped statement can never make a valid plan invalid, but
        // the guard keeps the predicate total).
        FaultPlan parsed;
        if (!FaultPlan::parse(joinStatements(stmts), &parsed, nullptr))
            return false;
        return failsWith(joinStatements(stmts));
    };

    std::vector<std::string> stmts = splitStatements(failing.plan);

    // Pass 1: drop statements.
    stmts = ddmin(std::move(stmts), failsList, kMaxProbes,
                  result.probes);

    // Pass 2: shrink numeric triggers, one statement at a time,
    // re-trying a statement as long as a variant sticks.
    for (size_t i = 0;
         i < stmts.size() && result.probes < kMaxProbes; ++i) {
        bool shrunk = true;
        while (shrunk && result.probes < kMaxProbes) {
            shrunk = false;
            for (const std::string &variant :
                 shrinkVariants(stmts[i])) {
                std::vector<std::string> candidate = stmts;
                candidate[i] = variant;
                ++result.probes;
                if (failsList(candidate)) {
                    stmts = std::move(candidate);
                    shrunk = true;
                    break;
                }
                if (result.probes >= kMaxProbes)
                    break;
            }
        }
    }

    // Pass 3: shrunk values can strand now-redundant statements.
    stmts = ddmin(std::move(stmts), failsList, kMaxProbes,
                  result.probes);

    result.minimized.plan = joinStatements(stmts);
    XMIG_ASSERT(failsList(stmts),
                "minimized plan no longer fails its oracle");
    return result;
}

} // namespace xmig
