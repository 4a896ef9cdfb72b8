/**
 * @file
 * Minimal command-line handling shared by the bench binaries.
 *
 * Every harness accepts:
 *   --instr N      instruction budget per benchmark (default: the
 *                  harness's own budget, or its smoke budget under
 *                  --smoke)
 *   --scale X      multiply the budget that applies by X
 *   --bench NAME   restrict to one benchmark (repeatable)
 *   --seed S       workload seed
 *   --warmup N     unmeasured warm-up instructions (where supported)
 *   --fault-plan P xmig-iron fault plan (fault_plan.hpp grammar),
 *                  forwarded to MachineConfig::faultPlan by harnesses
 *                  that run a MigrationMachine
 *   --jobs N       xmig-swift sweep workers (default: the XMIG_JOBS
 *                  environment variable, else one per host core).
 *                  Output is bit-identical at any value
 *                  (docs/parallelism.md); N must be positive
 *   --smoke        CI-sized run: harnesses shrink budgets and sweep
 *                  ranges to finish in seconds
 *   --csv F        write the machine-readable result table to F
 *                  (harnesses that emit one, e.g. bench_figure1)
 *
 *
 * xmig-scope outputs (harnesses that run a machine; applied to the
 * first selected benchmark — see sim/observe.hpp):
 *   --metrics-out F   dump the metrics registry as JSONL to F
 *   --samples-out F   dump the time-series sampler as CSV to F
 *   --trace-out F     render the xmig-lens event journal as a Chrome
 *                     trace_event JSON file to F
 *   --journal-out F   dump the xmig-lens event journal as JSONL to F
 *                     (both are per-machine state: byte-identical at
 *                     any --jobs)
 *   --sample-every N  references between time-series samples
 *
 * Numeric values are validated strictly (xmig-iron): empty, signed,
 * non-numeric, trailing-garbage, or overflowing counts are fatal
 * errors instead of silently parsing as 0 or saturating. An argument
 * that is neither a flag above nor one of the harness's own flags
 * (passed to parse() by name) is fatal too, so a misspelt flag cannot
 * run the default budget.
 */

#pragma once

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "util/logging.hpp"

namespace xmig {

/** Parsed common options. */
struct BenchOptions
{
    static constexpr uint64_t kDefaultInstructions = 20'000'000;

    uint64_t instructions = kDefaultInstructions;
    uint64_t warmup = 0;
    uint64_t seed = 42;
    std::vector<std::string> benchmarks; ///< empty = all

    std::string csvOut;        ///< "" = no CSV dump (bench_figure1)
    std::string metricsOut;    ///< "" = no metrics dump
    std::string samplesOut;    ///< "" = no time-series dump
    std::string traceOut;      ///< "" = no trace
    std::string journalOut;    ///< "" = no event journal
    uint64_t sampleEvery = 0;  ///< 0 = sampler default cadence

    std::string faultPlan;     ///< "" = no fault injection

    /** Values of the harness's own flags, keyed by flag. */
    std::map<std::string, std::string> harnessFlags;

    /**
     * Sweep workers (xmig-swift). 0 = auto: one per host core
     * (JobPool::defaultJobs()).
     */
    unsigned jobs = 0;

    /** CI-sized run: harnesses shrink budgets and sweep ranges. */
    bool smoke = false;

    /** True if any xmig-scope output was requested. */
    bool
    observing() const
    {
        return !metricsOut.empty() || !samplesOut.empty() ||
               !traceOut.empty() || !journalOut.empty();
    }

    /**
     * Strict decimal count: the whole string must be digits (no
     * sign, no blanks, no suffix) and fit in uint64_t.
     */
    static uint64_t
    parseCount(const char *flag, const char *text)
    {
        if (text == nullptr || *text == '\0')
            XMIG_FATAL("%s requires a value", flag);
        for (const char *p = text; *p != '\0'; ++p) {
            if (*p < '0' || *p > '9')
                XMIG_FATAL("%s: '%s' is not a non-negative integer",
                           flag, text);
        }
        errno = 0;
        char *end = nullptr;
        const unsigned long long v = std::strtoull(text, &end, 10);
        if (errno == ERANGE || end == nullptr || *end != '\0')
            XMIG_FATAL("%s: '%s' overflows a 64-bit count", flag,
                       text);
        return static_cast<uint64_t>(v);
    }

    /**
     * Strict worker count for --jobs / XMIG_JOBS: a *positive*
     * integer (0 workers is meaningless; "auto" is expressed by
     * omitting the flag entirely).
     */
    static unsigned
    parseJobs(const char *flag, const char *text)
    {
        const uint64_t v = parseCount(flag, text);
        if (v == 0 || v > 4096)
            XMIG_FATAL("%s: '%s' is not a positive worker count "
                       "(1..4096)", flag, text);
        return static_cast<unsigned>(v);
    }

    /** Value of harness flag `flag`, or "" if it was not given. */
    std::string
    harnessFlag(const std::string &flag) const
    {
        const auto it = harnessFlags.find(flag);
        return it == harnessFlags.end() ? std::string() : it->second;
    }

    /** parse() for a harness whose smoke budget is its default. */
    static BenchOptions
    parse(int argc, char **argv,
          uint64_t defaultInstr = kDefaultInstructions)
    {
        return parse(argc, argv, defaultInstr, defaultInstr);
    }

    /**
     * Parse the command line of a harness whose own budget is
     * `defaultInstr`, and `smokeInstr` under --smoke. An explicit
     * --instr replaces both; --scale multiplies whichever applies.
     * `ownFlags` names the harness's own flags, each taking one value
     * that lands in harnessFlags; any other unknown argument is fatal.
     */
    static BenchOptions
    parse(int argc, char **argv, uint64_t defaultInstr,
          uint64_t smokeInstr,
          std::initializer_list<const char *> ownFlags = {})
    {
        BenchOptions opt;
        bool instrGiven = false;
        double scale = 1.0;
        if (const char *env = std::getenv("XMIG_JOBS"))
            opt.jobs = parseJobs("XMIG_JOBS", env);
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> const char * {
                return i + 1 < argc ? argv[++i] : "";
            };
            if (arg == "--instr") {
                opt.instructions = parseCount("--instr", next());
                instrGiven = true;
            } else if (arg == "--warmup")
                opt.warmup = parseCount("--warmup", next());
            else if (arg == "--scale") {
                const char *text = next();
                errno = 0;
                char *end = nullptr;
                scale = std::strtod(text, &end);
                if (*text == '\0' || end == nullptr || *end != '\0' ||
                    !std::isfinite(scale) || scale <= 0.0) {
                    XMIG_FATAL("--scale: '%s' is not a positive "
                               "finite number",
                               text);
                }
            } else if (arg == "--seed")
                opt.seed = parseCount("--seed", next());
            else if (arg == "--bench")
                opt.benchmarks.emplace_back(next());
            else if (arg == "--csv")
                opt.csvOut = next();
            else if (arg == "--metrics-out")
                opt.metricsOut = next();
            else if (arg == "--samples-out")
                opt.samplesOut = next();
            else if (arg == "--trace-out")
                opt.traceOut = next();
            else if (arg == "--journal-out")
                opt.journalOut = next();
            else if (arg == "--sample-every")
                opt.sampleEvery = parseCount("--sample-every", next());
            else if (arg == "--fault-plan") {
                opt.faultPlan = next();
                // Validate eagerly so a typo dies at the command
                // line, not after minutes of warm-up.
                FaultPlan::parseOrFatal(opt.faultPlan);
            } else if (arg == "--jobs")
                opt.jobs = parseJobs("--jobs", next());
            else if (arg == "--smoke")
                opt.smoke = true;
            else if (std::any_of(ownFlags.begin(), ownFlags.end(),
                                 [&](const char *f) { return arg == f; })) {
                const char *text = next();
                if (*text == '\0')
                    XMIG_FATAL("%s requires a value", arg.c_str());
                opt.harnessFlags[arg] = text;
            } else
                XMIG_FATAL("unknown argument '%s'", arg.c_str());
        }
        if (!instrGiven)
            opt.instructions = opt.smoke ? smokeInstr : defaultInstr;
        opt.instructions = static_cast<uint64_t>(
            static_cast<double>(opt.instructions) * scale);
        return opt;
    }
};

} // namespace xmig
