#include "fuzz/fuzz_cli.hpp"

#include "sim/options.hpp"

namespace xmig {

const char *
fuzzCliUsage()
{
    static const std::string usage =
        std::string(
        "usage: xmig_fuzz [mode] [options]\n"
        "\n"
        "modes (default: uniform campaign):\n"
        "  --guided              coverage-guided campaign\n"
        "  --replay 'PLAN'       re-run one case, report every oracle\n"
        "  --self-test           prove the find->minimize->repro pipeline\n"
        "\n"
        "campaign options:\n"
        "  --seed N              campaign seed (default 1)\n"
        "  --plans N             case count (default 200; --smoke: 50)\n"
        "  --jobs N              worker threads (default: hardware)\n"
        "  --instr N             instructions per case (default 150000;\n"
        "                        --smoke: 60000)\n"
        "  --bench NAME          workload (default ") +
        kDefaultFuzzBenchmark + ")\n"
        "  --repro-dir DIR       write minimized repros + journals here\n"
        "  --no-minimize         keep failing plans unminimized\n"
        "  --smoke               small fast defaults\n"
        "  --verbose             progress to stderr\n"
        "\n"
        "guided options:\n"
        "  --corpus DIR          persistent corpus: replay it first,\n"
        "                        save every coverage-novel case to it\n"
        "  --storm-workloads     pair the adversarial workload pool in\n"
        "\n"
        "replay options:\n"
        "  --workload-seed N     workload seed of the case (default 42)\n"
        "\n"
        "exit codes: 0 = clean, 1 = failures found, 2 = usage error\n";
    return usage.c_str();
}

FuzzCliParse
parseFuzzCli(int argc, const char *const *argv)
{
    FuzzCliParse p;
    FuzzCliOptions &o = p.options;
    CampaignConfig &campaign = o.campaign;

    const auto fail = [&](const std::string &message) {
        p.exitCode = 2;
        p.error = message;
        return p;
    };

    bool guided = false, replay = false, self_test = false;
    bool smoke = false, plans_set = false, instr_set = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];

        // Flags taking a value.
        const auto value = [&](const char **out) {
            if (i + 1 >= argc)
                return false;
            *out = argv[++i];
            return true;
        };
        const auto count = [&](uint64_t *out, bool positive) {
            const char *token = nullptr;
            if (!value(&token)) {
                p.exitCode = 2;
                p.error = "missing value for " + arg;
                return false;
            }
            // Strict like BenchOptions::parseCount, but a usage
            // error here exits 2, so it is returned, not fatal.
            if (parseStrictCount(token, out) != CountParse::Ok) {
                p.exitCode = 2;
                p.error = "malformed value for " + arg + ": '" +
                          token + "'";
                return false;
            }
            if (positive && *out == 0) {
                p.exitCode = 2;
                p.error = arg + " must be positive";
                return false;
            }
            return true;
        };

        if (arg == "--help" || arg == "-h") {
            p.exitCode = 0;
            return p;
        } else if (arg == "--guided") {
            guided = true;
        } else if (arg == "--self-test") {
            self_test = true;
        } else if (arg == "--replay") {
            const char *token = nullptr;
            if (!value(&token))
                return fail("missing plan for --replay");
            replay = true;
            o.replayPlan = token;
        } else if (arg == "--seed") {
            if (!count(&o.seed, false))
                return p;
        } else if (arg == "--plans") {
            if (!count(&campaign.plans, true))
                return p;
            plans_set = true;
        } else if (arg == "--jobs") {
            uint64_t jobs = 0;
            if (!count(&jobs, true))
                return p;
            if (!validJobs(jobs))
                return fail("--jobs must be <= " +
                            std::to_string(JobPool::kMaxJobs));
            o.jobs = static_cast<unsigned>(jobs);
        } else if (arg == "--instr") {
            if (!count(&campaign.instructions, true))
                return p;
            instr_set = true;
        } else if (arg == "--workload-seed") {
            if (!count(&o.workloadSeed, false))
                return p;
        } else if (arg == "--bench") {
            const char *token = nullptr;
            if (!value(&token) || *token == '\0')
                return fail("missing value for --bench");
            campaign.benchmark = token;
        } else if (arg == "--repro-dir") {
            const char *token = nullptr;
            if (!value(&token))
                return fail("missing value for --repro-dir");
            campaign.reproDir = token;
        } else if (arg == "--corpus") {
            const char *token = nullptr;
            if (!value(&token))
                return fail("missing value for --corpus");
            campaign.corpusDir = token;
        } else if (arg == "--no-minimize") {
            campaign.minimize = false;
        } else if (arg == "--storm-workloads") {
            o.stormWorkloads = true;
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--verbose") {
            o.verbose = true;
        } else {
            return fail("unknown flag '" + arg + "'");
        }
    }

    const int modes =
        (guided ? 1 : 0) + (replay ? 1 : 0) + (self_test ? 1 : 0);
    if (modes > 1)
        return fail("conflicting modes: pick one of --guided, "
                    "--replay, --self-test");
    if (guided)
        o.mode = FuzzCliOptions::Mode::Guided;
    else if (replay)
        o.mode = FuzzCliOptions::Mode::Replay;
    else if (self_test)
        o.mode = FuzzCliOptions::Mode::SelfTest;

    if (!campaign.corpusDir.empty() && !guided)
        return fail("--corpus only makes sense with --guided");

    // --smoke changes only the defaults: an explicit value wins.
    if (smoke && !plans_set)
        campaign.plans = 50;
    if (smoke && !instr_set)
        campaign.instructions = 60'000;

    return p;
}

} // namespace xmig
