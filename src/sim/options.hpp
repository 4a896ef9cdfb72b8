/**
 * @file
 * Minimal command-line handling shared by the paper experiments
 * (bench/paper.hpp) and the examples.
 *
 * The flags parse() knows:
 *   --instr N      instruction budget per benchmark (default: the
 *                  reader's own budget, or its smoke budget under
 *                  --smoke)
 *   --bench NAME   restrict to one benchmark (repeatable)
 *   --seed S       workload seed
 *   --warmup N     unmeasured warm-up instructions
 *   --fault-plan P xmig-iron fault plan (fault_plan.hpp grammar),
 *                  forwarded to MachineConfig::faultPlan
 *   --jobs N       xmig-swift sweep workers, 1..JobPool::kMaxJobs
 *                  (default: one per host core). Output is
 *                  bit-identical at any value (docs/parallelism.md)
 *   --smoke        CI-sized run: shrink budgets and sweep ranges to
 *                  finish in seconds
 *   --csv F        write the machine-readable result table to F
 *   --csv-dir DIR  write several CSV tables into DIR (lands in
 *                  csvOut; not one of the common flags)
 *
 * xmig-scope outputs (applied to the first selected benchmark — see
 * sim/observe.hpp):
 *   --metrics-out F   dump the metrics registry as JSONL to F
 *   --samples-out F   dump the time-series sampler as CSV to F
 *   --trace-out F     render the xmig-lens event journal as a Chrome
 *                     trace_event JSON file to F
 *   --journal-out F   dump the xmig-lens event journal as JSONL to F
 *                     (both are per-machine state: byte-identical at
 *                     any --jobs)
 *   --sample-every N  references between time-series samples
 *
 * Each reader names the set of flags it reads; a flag outside that
 * set is fatal and the message names the flag and the reader, so a
 * flag the program would ignore cannot pass silently. Numeric values
 * are validated strictly (xmig-iron): empty, signed, non-numeric,
 * trailing-garbage, or overflowing counts are fatal errors instead of
 * silently parsing as 0 or saturating. An unknown argument is fatal
 * too, so a misspelt flag cannot run the default budget.
 */

#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "sim/runner/job_pool.hpp"
#include "util/logging.hpp"

namespace xmig {

/** How a strict count parse ended. */
enum class CountParse : uint8_t
{
    Ok,
    Empty,     ///< no characters at all
    NotDigits, ///< a sign, blank, suffix or other non-digit
    Overflow,  ///< digits only, but past UINT64_MAX
};

/**
 * Strict decimal count, shared by every CLI: the whole string must be
 * digits (no sign, no blanks, no suffix) and fit in uint64_t. `*out`
 * is written only on Ok.
 */
inline CountParse
parseStrictCount(const char *text, uint64_t *out)
{
    if (text == nullptr || *text == '\0')
        return CountParse::Empty;
    for (const char *p = text; *p != '\0'; ++p) {
        if (*p < '0' || *p > '9')
            return CountParse::NotDigits;
    }
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno == ERANGE || end == nullptr || *end != '\0')
        return CountParse::Overflow;
    *out = static_cast<uint64_t>(v);
    return CountParse::Ok;
}

/** A worker count every CLI accepts for --jobs: 1..JobPool::kMaxJobs. */
constexpr bool
validJobs(uint64_t jobs)
{
    return jobs >= 1 && jobs <= JobPool::kMaxJobs;
}

/** One bit per flag BenchOptions::parse() knows. */
enum BenchFlag : uint32_t
{
    kFlagInstr = 1u << 0,
    kFlagBench = 1u << 1,
    kFlagSeed = 1u << 2,
    kFlagWarmup = 1u << 3,
    kFlagFaultPlan = 1u << 4,
    kFlagJobs = 1u << 5,
    kFlagSmoke = 1u << 6,
    kFlagCsv = 1u << 7,
    kFlagMetricsOut = 1u << 8,
    kFlagSamplesOut = 1u << 9,
    kFlagTraceOut = 1u << 10,
    kFlagJournalOut = 1u << 11,
    kFlagSampleEvery = 1u << 12,
    kFlagCsvDir = 1u << 13,
};

/** The common flags: every flag but --csv-dir. */
constexpr uint32_t kCommonFlags = kFlagCsvDir - 1;

/** A flag's spelling and whether it takes a value. */
struct BenchFlagInfo
{
    const char *name;
    BenchFlag bit;
    bool takesValue;
};

/** Every flag parse() knows, in BenchFlag bit order. */
inline constexpr BenchFlagInfo kBenchFlags[] = {
    {"--instr", kFlagInstr, true},
    {"--bench", kFlagBench, true},
    {"--seed", kFlagSeed, true},
    {"--warmup", kFlagWarmup, true},
    {"--fault-plan", kFlagFaultPlan, true},
    {"--jobs", kFlagJobs, true},
    {"--smoke", kFlagSmoke, false},
    {"--csv", kFlagCsv, true},
    {"--metrics-out", kFlagMetricsOut, true},
    {"--samples-out", kFlagSamplesOut, true},
    {"--trace-out", kFlagTraceOut, true},
    {"--journal-out", kFlagJournalOut, true},
    {"--sample-every", kFlagSampleEvery, true},
    {"--csv-dir", kFlagCsvDir, true},
};

/** Parsed common options. */
struct BenchOptions
{
    static constexpr uint64_t kDefaultInstructions = 20'000'000;

    uint64_t instructions = kDefaultInstructions;
    uint64_t warmup = 0;
    uint64_t seed = 42;
    std::vector<std::string> benchmarks; ///< empty = all

    std::string csvOut;        ///< "" = no CSV (--csv file, --csv-dir dir)
    std::string metricsOut;    ///< "" = no metrics dump
    std::string samplesOut;    ///< "" = no time-series dump
    std::string traceOut;      ///< "" = no trace
    std::string journalOut;    ///< "" = no event journal
    uint64_t sampleEvery = 0;  ///< 0 = sampler default cadence

    std::string faultPlan;     ///< "" = no fault injection

    /**
     * Sweep workers (xmig-swift). 0 = auto: one per host core
     * (JobPool::defaultJobs()).
     */
    unsigned jobs = 0;

    /** CI-sized run: shrink budgets and sweep ranges. */
    bool smoke = false;

    /** True if any xmig-scope output was requested. */
    bool
    observing() const
    {
        return !metricsOut.empty() || !samplesOut.empty() ||
               !traceOut.empty() || !journalOut.empty();
    }

    /** The flags in `flags`, space-separated, in kBenchFlags order. */
    static std::string
    flagNames(uint32_t flags)
    {
        std::string names;
        for (const BenchFlagInfo &f : kBenchFlags) {
            if ((flags & f.bit) == 0)
                continue;
            if (!names.empty())
                names += ' ';
            names += f.name;
        }
        return names;
    }

    /** parseStrictCount(), fatal (exit 1) on anything but Ok. */
    static uint64_t
    parseCount(const char *flag, const char *text)
    {
        uint64_t v = 0;
        switch (parseStrictCount(text, &v)) {
          case CountParse::Ok:
            break;
          case CountParse::Empty:
            XMIG_FATAL("%s requires a value", flag);
          case CountParse::NotDigits:
            XMIG_FATAL("%s: '%s' is not a non-negative integer", flag,
                       text);
          case CountParse::Overflow:
            XMIG_FATAL("%s: '%s' overflows a 64-bit count", flag,
                       text);
        }
        return v;
    }

    /**
     * Strict worker count for --jobs: validJobs() or fatal (0
     * workers is meaningless; "auto" is expressed by omitting the
     * flag entirely).
     */
    static unsigned
    parseJobs(const char *flag, const char *text)
    {
        const uint64_t v = parseCount(flag, text);
        if (!validJobs(v))
            XMIG_FATAL("%s: '%s' is not a positive worker count "
                       "(1..%u)", flag, text, JobPool::kMaxJobs);
        return static_cast<unsigned>(v);
    }

    /** parse() of the common flags, smoke budget = default budget. */
    static BenchOptions
    parse(int argc, char **argv,
          uint64_t defaultInstr = kDefaultInstructions)
    {
        return parse(argc, argv, defaultInstr, defaultInstr);
    }

    /**
     * Parse the command line of a reader whose own budget is
     * `defaultInstr`, and `smokeInstr` under --smoke. An explicit
     * --instr replaces both.
     * `reads` is the set of BenchFlag bits the reader reads; a known
     * flag outside it is fatal, naming `reader` (argv[0] when null).
     */
    static BenchOptions
    parse(int argc, char **argv, uint64_t defaultInstr,
          uint64_t smokeInstr, uint32_t reads = kCommonFlags,
          const char *reader = nullptr)
    {
        BenchOptions opt;
        bool instrGiven = false;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const BenchFlagInfo *flag = nullptr;
            for (const BenchFlagInfo &f : kBenchFlags) {
                if (arg == f.name)
                    flag = &f;
            }
            if (flag == nullptr)
                XMIG_FATAL("unknown argument '%s'", arg.c_str());
            if ((reads & flag->bit) == 0)
                XMIG_FATAL("%s does not read %s (it reads: %s)",
                           reader != nullptr ? reader : argv[0],
                           flag->name, flagNames(reads).c_str());
            const char *text = "";
            if (flag->takesValue && i + 1 < argc)
                text = argv[++i];
            switch (flag->bit) {
              case kFlagInstr:
                opt.instructions = parseCount("--instr", text);
                instrGiven = true;
                break;
              case kFlagBench:
                opt.benchmarks.emplace_back(text);
                break;
              case kFlagSeed:
                opt.seed = parseCount("--seed", text);
                break;
              case kFlagWarmup:
                opt.warmup = parseCount("--warmup", text);
                break;
              case kFlagFaultPlan:
                opt.faultPlan = text;
                // Validate eagerly so a typo dies at the command
                // line, not after minutes of warm-up.
                FaultPlan::parseOrFatal(opt.faultPlan);
                break;
              case kFlagJobs:
                opt.jobs = parseJobs("--jobs", text);
                break;
              case kFlagSmoke:
                opt.smoke = true;
                break;
              case kFlagCsv:
                opt.csvOut = text;
                break;
              case kFlagMetricsOut:
                opt.metricsOut = text;
                break;
              case kFlagSamplesOut:
                opt.samplesOut = text;
                break;
              case kFlagTraceOut:
                opt.traceOut = text;
                break;
              case kFlagJournalOut:
                opt.journalOut = text;
                break;
              case kFlagSampleEvery:
                opt.sampleEvery = parseCount("--sample-every", text);
                break;
              case kFlagCsvDir:
                if (*text == '\0')
                    XMIG_FATAL("--csv-dir requires a value");
                opt.csvOut = text;
                break;
            }
        }
        if (!instrGiven)
            opt.instructions = opt.smoke ? smokeInstr : defaultInstr;
        return opt;
    }
};

} // namespace xmig
