/**
 * @file
 * xmig-forge property harness: runs one fault plan against the
 * quadcore machine and checks an oracle battery.
 *
 * Oracles (all in-process; a failure is a returned record, not an
 * abort, so a campaign can minimize it):
 *
 *  - invalid_plan      the spec must parse (checked up front — the
 *                      machine constructor exits the process on bad
 *                      specs, so the harness never hands it one);
 *  - replay            two machines fed the same (workload seed,
 *                      plan) pair must finish bit-identical;
 *  - checkpoint        a checkpoint captured mid-run and restored
 *                      into two fresh machines, both fed the same
 *                      suffix, must leave them bit-identical (the
 *                      injector is deliberately not checkpointed, so
 *                      the restored pair is compared to each other,
 *                      not to the original run);
 *  - topology          the live mask is never empty, the active core
 *                      is live, machine and controller agree on it,
 *                      the split arity fits the survivor count, and a
 *                      plan with no core_off rules leaves the full
 *                      mask intact;
 *  - coherence         countMultiModifiedLines() == 0 whenever the
 *                      plan does not target the update bus (bus-drop
 *                      plans legitimately leave transient violations
 *                      between scrub sweeps);
 *  - accounting        FaultStats totals reconcile with the machine
 *                      and controller counters (ticks == refs,
 *                      bus drops match, accepted churn <= injected
 *                      churn, untargeted sites stay at zero);
 *  - watchdog          the case must finish inside a generous
 *                      wall-clock budget (livelock backstop);
 *  - broken_self_test  a deliberately wrong test-only oracle used to
 *                      prove the minimizer pipeline end to end.
 *
 * Paranoid-audit violations and sanitizer findings abort the process
 * instead of returning a record — that is still a red fuzz campaign,
 * just one whose repro is the whole case rather than a minimized one.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fuzz/coverage.hpp"

namespace xmig {

/** The workload a fuzz case runs unless --bench names another. */
inline constexpr const char *kDefaultFuzzBenchmark = "181.mcf";

/** One (plan, workload) pairing to execute. */
struct FuzzCase
{
    std::string plan;               ///< FaultPlan spec string
    std::string benchmark = kDefaultFuzzBenchmark;
    uint64_t workloadSeed = 42;
    uint64_t instructions = 150'000;
};

/** One oracle violation. */
struct OracleFailure
{
    std::string oracle; ///< stable id, e.g. "replay"
    std::string detail; ///< human-readable evidence
};

/** Outcome of one case. */
struct CaseResult
{
    std::vector<OracleFailure> failures;
    uint64_t refs = 0;
    uint64_t migrations = 0;
    uint64_t faultsInjected = 0;

    /**
     * The primary run's coverage surface (fuzz/coverage.hpp),
     * name-sorted — what the xmig-storm guidance loop folds back.
     */
    std::vector<CoveragePoint> coverage;

    bool failed() const { return !failures.empty(); }
};

/** Harness knobs. */
struct HarnessConfig
{
    /** Wall-clock budget per case; 0 disables the watchdog. */
    uint64_t timeoutMs = 60'000;

    /**
     * Arm the deliberately broken test-only oracle: any plan that
     * targets both core_off and bus_drop "fails". Lets tests and the
     * CI self-test prove the find -> minimize -> repro pipeline
     * without a real bug.
     */
    bool brokenOracle = false;
};

/**
 * Stateless executor of fuzz cases (safe to share across JobPool
 * workers: run() touches only locals).
 */
class PropertyHarness
{
  public:
    explicit PropertyHarness(HarnessConfig config = {})
        : config_(config)
    {
    }

    /** Execute `c` and its oracle battery. */
    CaseResult run(const FuzzCase &c) const;

    const HarnessConfig &config() const { return config_; }

  private:
    HarnessConfig config_;
};

} // namespace xmig
