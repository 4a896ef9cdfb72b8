#include "fuzz/plan_generator.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/logging.hpp"

namespace xmig {

namespace {

/** Core count of the machine the plans run against (section 4.2). */
constexpr unsigned kCores = 4;

/** Probability that a numeric value is a boundary value. */
constexpr double kBoundaryBias = 0.4;

/** Probability that a statement duplicates an earlier one. */
constexpr double kDuplicateBias = 0.15;

/** Flip-site names, matching the `flip=` production. */
constexpr const char *kFlipNames[] = {"ae", "delta", "ar", "oe", "tag"};

} // namespace

std::string
FuzzPlan::spec() const
{
    std::string out;
    for (const std::string &s : statements) {
        if (!out.empty())
            out += ';';
        out += s;
    }
    return out;
}

static_assert(PlanGenerator::kMaxStatements >= 2,
              "need room for at least a churn pair");

PlanGenerator::PlanGenerator(uint64_t seed) : rng_(seed) {}

uint64_t
PlanGenerator::sampleTick(uint64_t previous_tick)
{
    if (rng_.chance(kBoundaryBias)) {
        switch (rng_.below(5)) {
          case 0: return 0; // fires before the first reference retires
          case 1: return 1;
          case 2: return kTickHorizon;
          case 3: return kTickHorizon + 1; // never fires
          default: return previous_tick;          // same-tick pile-up
        }
    }
    return rng_.below(kTickHorizon + 1);
}

double
PlanGenerator::sampleRate()
{
    if (rng_.chance(kBoundaryBias)) {
        switch (rng_.below(4)) {
          case 0: return 1.0; // fires at every opportunity
          case 1: return 0.0; // armed but silent
          case 2: return 0.5;
          default: return 1e-18; // denormal-adjacent but finite
        }
    }
    // Log-uniform-ish over [1e-7, ~1]: interesting injection
    // densities span orders of magnitude, and uniform sampling would
    // all but never produce the sparse rates real soft-error models
    // use. Built from multiplies only (no pow) so the draw is
    // bit-stable across libm versions.
    const uint64_t decade = rng_.inRange(1, 7);
    double rate = 1.0 + 9.0 * rng_.uniform();
    for (uint64_t i = 0; i < decade; ++i)
        rate *= 0.1;
    return rate;
}

double
PlanGenerator::sampleHotRate()
{
    // Log-uniform over [1e-3, 1e-1]: dense enough to fire many times
    // within one fuzz case's reference budget, sparse enough not to
    // destroy every single migration. Multiplies only, like
    // sampleRate(), for bit-stability.
    const uint64_t decade = rng_.inRange(2, 3);
    double rate = 1.0 + 9.0 * rng_.uniform();
    for (uint64_t i = 0; i < decade; ++i)
        rate *= 0.1;
    return rate;
}

std::string
PlanGenerator::statementFor(FaultSite site, uint64_t &tick_io, bool hot)
{
    std::string event;
    switch (site) {
      case FaultSite::Ae:       event = "flip=ae"; break;
      case FaultSite::Delta:    event = "flip=delta"; break;
      case FaultSite::Ar:       event = "flip=ar"; break;
      case FaultSite::OeEntry:  event = "flip=oe"; break;
      case FaultSite::CacheTag: event = "flip=tag"; break;
      case FaultSite::MigDrop:  event = "mig_drop"; break;
      case FaultSite::MigDelay:
        event = "mig_delay=" + std::to_string(rng_.inRange(1, 64));
        break;
      case FaultSite::BusDrop:  event = "bus_drop"; break;
      case FaultSite::CoreOff:
      case FaultSite::CoreOn: {
        const unsigned core =
            static_cast<unsigned>(rng_.below(kCores));
        const char *dir =
            site == FaultSite::CoreOff ? "core_off" : "core_on";
        const uint64_t tick =
            hot ? rng_.below(kTickHorizon / 2 + 1)
                : sampleTick(tick_io);
        tick_io = tick;
        return "at=" + std::to_string(tick) + ':' + dir + '=' +
               std::to_string(core);
      }
      case FaultSite::kCount:
        XMIG_PANIC("kCount is not a fault site");
    }
    if (rng_.chance(hot ? 0.4 : 0.5)) {
        tick_io = hot ? rng_.below(kTickHorizon / 2 + 1)
                      : sampleTick(tick_io);
        return "at=" + std::to_string(tick_io) + ':' + event;
    }
    const double rate = hot ? sampleHotRate() : sampleRate();
    return "rate=" + formatRate(rate) + ':' + event;
}

std::string
PlanGenerator::sampleFlipOrFabric(bool &scheduled_out, uint64_t &tick_io)
{
    std::string event;
    switch (rng_.below(8)) {
      case 0: case 1: case 2: case 3: case 4:
        event = std::string("flip=") + kFlipNames[rng_.below(5)];
        break;
      case 5:
        event = "mig_drop";
        break;
      case 6:
        event = "mig_delay=" +
                std::to_string(rng_.inRange(1, 64));
        break;
      default:
        event = "bus_drop";
        break;
    }
    scheduled_out = rng_.chance(0.5);
    if (scheduled_out) {
        tick_io = sampleTick(tick_io);
        return "at=" + std::to_string(tick_io) + ':' + event;
    }
    return "rate=" + formatRate(sampleRate()) + ':' + event;
}

void
PlanGenerator::appendChurn(std::vector<std::string> &out,
                           uint64_t &tick_io)
{
    // Occasionally target a core id the controller must refuse or a
    // rejoin of a core that never left: both are warn-and-ignore
    // paths the oracles require to stay harmless.
    const bool bogus = rng_.chance(0.1);
    const unsigned core =
        bogus ? kCores + static_cast<unsigned>(rng_.below(4))
              : static_cast<unsigned>(rng_.below(kCores));

    if (rng_.chance(0.2)) {
        // Probabilistic churn, rate capped (see kMaxChurnRate).
        const double rate =
            std::min(sampleRate(), kMaxChurnRate);
        const char *dir = rng_.chance(0.5) ? "core_off" : "core_on";
        out.push_back("rate=" + formatRate(rate) + ':' + dir +
                      '=' + std::to_string(core));
        return;
    }

    // Scheduled pair. Back-to-back boundary: the rejoin lands on the
    // same tick or the very next one; sometimes the pair is reversed
    // (core_on of a live core, then core_off) to probe the
    // ignored-event path.
    const uint64_t off_tick = sampleTick(tick_io);
    uint64_t on_tick;
    if (rng_.chance(0.35)) {
        on_tick = off_tick + rng_.below(2);
    } else {
        on_tick = off_tick + 1 +
                  rng_.below(kTickHorizon / 4 + 1);
    }
    tick_io = on_tick;

    std::string off = "at=" + std::to_string(off_tick) +
                      ":core_off=" + std::to_string(core);
    std::string on = "at=" + std::to_string(on_tick) +
                     ":core_on=" + std::to_string(core);
    if (rng_.chance(0.15))
        std::swap(off, on);
    out.push_back(std::move(off));
    out.push_back(std::move(on));
}

FuzzPlan
PlanGenerator::next()
{
    FuzzPlan plan;
    plan.statements.push_back("seed=" +
                              std::to_string(rng_.next() >> 1));

    const unsigned budget = static_cast<unsigned>(
        rng_.inRange(1, kMaxStatements));
    uint64_t tick = rng_.below(kTickHorizon + 1);

    while (plan.statements.size() - 1 < budget) {
        // Duplicate an earlier fault statement verbatim: the grammar
        // allows it and the injector must count both copies.
        if (plan.statements.size() > 1 &&
            rng_.chance(kDuplicateBias)) {
            const size_t pick =
                1 + rng_.below(plan.statements.size() - 1);
            plan.statements.push_back(plan.statements[pick]);
            continue;
        }
        if (rng_.chance(0.3)) {
            appendChurn(plan.statements, tick);
            continue;
        }
        bool scheduled = false;
        plan.statements.push_back(
            sampleFlipOrFabric(scheduled, tick));
    }

    // Every emitted plan must be valid: the generator's whole
    // contract is "random but parseable".
    FaultPlan parsed;
    std::string error;
    if (!FaultPlan::parse(plan.spec(), &parsed, &error))
        XMIG_PANIC("generator emitted an unparseable plan '%s': %s",
                   plan.spec().c_str(), error.c_str());
    return plan;
}

} // namespace xmig
