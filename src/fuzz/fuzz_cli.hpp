/**
 * @file
 * xmig-storm CLI parsing for the xmig_fuzz tool.
 *
 * The fuzz driver is the kind of binary CI scripts and soak farms
 * call with machine-built argument lists, where a typo silently
 * ignored means a nightly run fuzzing the wrong thing. Like
 * BenchOptions::parse, which dies on an unknown argument, this parser
 * is strict: unknown flags, missing values and malformed numbers all
 * produce a diagnostic plus usage text and exit code 2 (usage error,
 * distinct from exit 1 = failures found). Unlike it, it is a pure
 * function of argv — no process exit, no logging — so tests drive it
 * in-process.
 */

#pragma once

#include <cstdint>
#include <string>

#include "fuzz/campaign.hpp"

namespace xmig {

/** Everything the xmig_fuzz driver can be asked to do. */
struct FuzzCliOptions
{
    enum class Mode : uint8_t
    {
        Campaign, ///< uniform campaign (PR 5 behavior)
        Guided,   ///< coverage-guided campaign (--guided)
        Replay,   ///< one case, every oracle verdict (--replay)
        SelfTest, ///< minimizer pipeline proof (--self-test)
    };
    Mode mode = Mode::Campaign;

    uint64_t seed = 1;
    unsigned jobs = 0;            ///< 0 = hardware concurrency

    /**
     * --plans (--smoke: 50), --instr (--smoke: 60'000), --bench,
     * --no-minimize, --repro-dir and --corpus; replay and self-test
     * read its benchmark, instructions and repro directory too.
     */
    CampaignConfig campaign;
    bool stormWorkloads = false;  ///< pair the adversarial pool in
    bool verbose = false;

    std::string replayPlan;
    uint64_t workloadSeed = 42;
};

/** Outcome of parsing one argv. */
struct FuzzCliParse
{
    FuzzCliOptions options;

    /**
     * -1: proceed with `options`. 0: --help was asked — print usage,
     * exit 0. 2: usage error — print `error` and usage, exit 2.
     */
    int exitCode = -1;

    std::string error; ///< diagnostic for exitCode == 2
};

/** The usage text (also printed on --help). */
const char *fuzzCliUsage();

/** Parse argv strictly; never exits, never logs. */
FuzzCliParse parseFuzzCli(int argc, const char *const *argv);

} // namespace xmig
