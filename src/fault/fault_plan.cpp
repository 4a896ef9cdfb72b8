#include "fault/fault_plan.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/contracts.hpp"
#include "util/logging.hpp"

namespace xmig {

namespace {

struct SiteSpec
{
    const char *name;
    FaultSite site;
};

constexpr SiteSpec kFlipSites[] = {
    {"ae", FaultSite::Ae},     {"delta", FaultSite::Delta},
    {"ar", FaultSite::Ar},     {"oe", FaultSite::OeEntry},
    {"tag", FaultSite::CacheTag},
};

bool
parseUint(const std::string &text, uint64_t *out)
{
    // strtoull skips leading whitespace and accepts a sign; the
    // grammar is whitespace-free, so insist on a leading digit.
    if (text.empty() || text[0] < '0' || text[0] > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end == text.c_str() || *end != '\0')
        return false;
    *out = v;
    return true;
}

bool
parseRate(const std::string &text, double *out)
{
    // As with parseUint: no leading whitespace, and no sign — a
    // probability is written bare ("-0" in particular would sneak a
    // negative zero past the v < 0 check below).
    if (text.empty() || text[0] == '-' || text[0] == '+' ||
        (text[0] != '.' && (text[0] < '0' || text[0] > '9')))
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno == ERANGE || end == text.c_str() || *end != '\0')
        return false;
    if (!std::isfinite(v) || v < 0.0 || v > 1.0)
        return false;
    *out = v;
    return true;
}

/** Parse the `event` production into `rule`; false + message on error. */
bool
parseEvent(const std::string &text, FaultRule *rule, std::string *error)
{
    const auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    const size_t eq = text.find('=');
    const std::string head = text.substr(0, eq);
    const std::string arg =
        eq == std::string::npos ? "" : text.substr(eq + 1);

    if (head == "core_off" || head == "core_on") {
        uint64_t core;
        if (!parseUint(arg, &core) || core >= 64)
            return fail("'" + head + "' needs a core id in [0, 64): '" +
                        arg + "'");
        rule->site = head == "core_off" ? FaultSite::CoreOff
                                        : FaultSite::CoreOn;
        rule->core = static_cast<unsigned>(core);
        return true;
    }
    if (head == "flip") {
        for (const SiteSpec &s : kFlipSites) {
            if (arg == s.name) {
                rule->site = s.site;
                return true;
            }
        }
        return fail("unknown flip site '" + arg +
                    "' (want ae, delta, ar, oe or tag)");
    }
    if (head == "mig_drop") {
        if (!arg.empty())
            return fail("'mig_drop' takes no argument");
        rule->site = FaultSite::MigDrop;
        return true;
    }
    if (head == "mig_delay") {
        uint64_t d;
        if (!parseUint(arg, &d) || d == 0)
            return fail("'mig_delay' needs a positive request count, "
                        "not '" + arg + "'");
        rule->site = FaultSite::MigDelay;
        rule->delay = d;
        return true;
    }
    if (head == "bus_drop") {
        if (!arg.empty())
            return fail("'bus_drop' takes no argument");
        rule->site = FaultSite::BusDrop;
        return true;
    }
    return fail("unknown fault event '" + head + "'");
}

} // namespace

std::string
formatRate(double v)
{
    char buf[64];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::Ae: return "ae";
      case FaultSite::Delta: return "delta";
      case FaultSite::Ar: return "ar";
      case FaultSite::OeEntry: return "oe";
      case FaultSite::CacheTag: return "tag";
      case FaultSite::MigDrop: return "mig_drop";
      case FaultSite::MigDelay: return "mig_delay";
      case FaultSite::BusDrop: return "bus_drop";
      case FaultSite::CoreOff: return "core_off";
      case FaultSite::CoreOn: return "core_on";
      case FaultSite::kCount: break;
    }
    return "?";
}

std::string
faultRuleToString(const FaultRule &rule)
{
    std::string out = rule.scheduled
                          ? "at=" + std::to_string(rule.at)
                          : "rate=" + formatRate(rule.rate);
    out += ':';
    switch (rule.site) {
      case FaultSite::Ae:
      case FaultSite::Delta:
      case FaultSite::Ar:
      case FaultSite::OeEntry:
      case FaultSite::CacheTag:
        out += "flip=";
        out += faultSiteName(rule.site);
        break;
      case FaultSite::MigDrop:
      case FaultSite::BusDrop:
        out += faultSiteName(rule.site);
        break;
      case FaultSite::MigDelay:
        out += "mig_delay=" + std::to_string(rule.delay);
        break;
      case FaultSite::CoreOff:
      case FaultSite::CoreOn:
        out += faultSiteName(rule.site);
        out += '=' + std::to_string(rule.core);
        break;
      case FaultSite::kCount:
        XMIG_PANIC("faultRuleToString on kCount");
    }
    return out;
}

std::string
FaultPlan::toString() const
{
    std::string out = "seed=" + std::to_string(seed);
    for (const FaultRule &r : scheduled)
        out += ';' + faultRuleToString(r);
    for (const FaultRule &r : rates)
        out += ';' + faultRuleToString(r);
    return out;
}

bool
FaultPlan::targets(FaultSite site) const
{
    const auto match = [site](const FaultRule &r) {
        return r.site == site;
    };
    return std::any_of(scheduled.begin(), scheduled.end(), match) ||
           std::any_of(rates.begin(), rates.end(), match);
}

bool
FaultPlan::parse(const std::string &spec, FaultPlan *plan,
                 std::string *error)
{
    XMIG_ASSERT(plan != nullptr, "FaultPlan::parse needs a target");
    FaultPlan out;
    const auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };

    size_t pos = 0;
    while (pos <= spec.size() && !spec.empty()) {
        size_t end = spec.find(';', pos);
        const bool last = end == std::string::npos;
        if (last)
            end = spec.size();
        const std::string stmt = spec.substr(pos, end - pos);
        pos = end + 1;
        if (stmt.empty()) {
            // Only the empty *spec* is inert; an empty statement is a
            // malformed plan (a stray or trailing ';' usually means a
            // statement got lost in shell quoting).
            return fail(last ? "trailing ';' (empty statement)"
                             : "empty statement (stray ';')");
        }

        if (stmt.rfind("seed=", 0) == 0) {
            if (!parseUint(stmt.substr(5), &out.seed))
                return fail("bad seed in '" + stmt + "'");
            continue;
        }

        const size_t colon = stmt.find(':');
        if (colon == std::string::npos)
            return fail("statement '" + stmt +
                        "' is not seed=, at=N:<event> or "
                        "rate=P:<event>");
        const std::string trigger = stmt.substr(0, colon);
        const std::string event = stmt.substr(colon + 1);

        FaultRule rule;
        std::string event_error;
        if (!parseEvent(event, &rule, &event_error))
            return fail("in '" + stmt + "': " + event_error);

        if (trigger.rfind("at=", 0) == 0) {
            if (!parseUint(trigger.substr(3), &rule.at))
                return fail("bad tick in '" + stmt + "'");
            rule.scheduled = true;
            out.scheduled.push_back(rule);
        } else if (trigger.rfind("rate=", 0) == 0) {
            if (!parseRate(trigger.substr(5), &rule.rate))
                return fail("bad rate in '" + stmt +
                            "' (want a probability in [0, 1])");
            rule.scheduled = false;
            out.rates.push_back(rule);
        } else {
            return fail("trigger '" + trigger +
                        "' is not at=N or rate=P");
        }
    }

    std::stable_sort(out.scheduled.begin(), out.scheduled.end(),
                     [](const FaultRule &a, const FaultRule &b) {
                         return a.at < b.at;
                     });
    *plan = std::move(out);
    return true;
}

FaultPlan
FaultPlan::parseOrFatal(const std::string &spec)
{
    FaultPlan plan;
    std::string error;
    if (!parse(spec, &plan, &error))
        XMIG_FATAL("bad --fault-plan: %s", error.c_str());
    return plan;
}

} // namespace xmig
