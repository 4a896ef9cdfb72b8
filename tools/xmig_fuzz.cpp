/**
 * @file
 * xmig_fuzz: the xmig-forge/xmig-storm fuzzing driver
 * (docs/robustness.md §7-§8).
 *
 * Modes:
 *
 *   campaign (default)
 *     xmig_fuzz --seed S --plans N --jobs J [--repro-dir DIR]
 *               [--no-minimize] [--bench NAME] [--instr I]
 *     Runs an N-case uniform campaign. The summary on stdout and any
 *     repro files are byte-identical for fixed (S, N) at any J. Every
 *     failure is minimized, and with --repro-dir its repro and an
 *     xmig-lens journal of the minimized case land in DIR as
 *     repro_case<N>.txt and repro_case<N>.journal.jsonl.
 *     Exit 1 if any failure survives.
 *
 *   guided
 *     xmig_fuzz --guided [--storm-workloads] [--corpus DIR] [...]
 *     Same, but the cases come from the coverage-guided generator:
 *     each batch's recovery/injection counters bias the next batch
 *     toward unlit counters. With --corpus this is the standing
 *     soak: the persisted corpus is replayed first, and every
 *     coverage-novel case is saved to it, content-addressed. Still
 *     byte-stable at any --jobs.
 *
 *   replay
 *     xmig_fuzz --replay 'PLAN' [--workload-seed W] [--bench NAME]
 *               [--instr I]
 *     Re-runs one (plan, workload) case — the command a repro file
 *     prints — and reports every oracle verdict. Exit 1 on failure.
 *
 *   self-test
 *     xmig_fuzz --self-test [--repro-dir DIR]
 *     Arms the deliberately broken test-only oracle, verifies a
 *     known-bad plan trips it, and proves the minimizer pipeline
 *     reduces it to <= 3 statements, twice, identically.
 *
 * Unknown flags and malformed values print usage and exit 2 (see
 * fuzz/fuzz_cli.hpp); exit 1 means the fuzzer found real failures.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"
#include "fuzz/fuzz_cli.hpp"
#include "fuzz/minimizer.hpp"
#include "sim/runner/job_pool.hpp"
#include "sim/runner/sweep.hpp"
#include "util/artifact.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

namespace {

/**
 * The guided workload pool: the adversarial xmig-storm family plus
 * the case's base benchmark, in fixed order (determinism).
 */
std::vector<std::string>
stormPool(const std::string &benchmark)
{
    std::vector<std::string> pool = adversarialWorkloadNames();
    pool.push_back(benchmark);
    return pool;
}

int
replayMode(const FuzzCliOptions &cli)
{
    FuzzCase c;
    c.plan = cli.replayPlan;
    c.benchmark = cli.campaign.benchmark;
    c.workloadSeed = cli.workloadSeed;
    c.instructions = cli.campaign.instructions;

    const PropertyHarness harness;
    const CaseResult r = harness.run(c);
    std::string out = "plan=" + c.plan + "\n";
    if (r.failed()) {
        for (const OracleFailure &f : r.failures)
            out += "FAIL oracle=" + f.oracle + " detail=" + f.detail +
                   "\n";
    } else {
        out += "ok: all oracles passed (refs=" +
               std::to_string(r.refs) + ", faults_injected=" +
               std::to_string(r.faultsInjected) + ")\n";
    }
    flushAtomically(out, stdout);
    return r.failed() ? 1 : 0;
}

int
selfTestMode(const FuzzCliOptions &cli)
{
    // A known-bad plan for the broken oracle (it targets both
    // core_off and bus_drop), padded with statements the minimizer
    // must discard.
    FuzzCase bad;
    bad.plan = "seed=9;at=120000:core_off=1;rate=0.001:flip=ae;"
               "at=60000:mig_delay=8;rate=0.0002:bus_drop;"
               "at=200000:core_on=1;rate=0.0001:mig_drop;at=1:flip=tag";
    bad.instructions = cli.campaign.instructions;

    HarnessConfig hc;
    hc.brokenOracle = true;
    const PropertyHarness harness(hc);

    const CaseResult r = harness.run(bad);
    bool tripped = false;
    for (const OracleFailure &f : r.failures)
        tripped = tripped || f.oracle == "broken_self_test";
    if (!tripped) {
        flushAtomically("self-test FAILED: broken oracle did not "
                        "fire on the known-bad plan\n", stdout);
        return 1;
    }

    const PlanMinimizer minimizer(harness);
    const MinimizeResult m1 =
        minimizer.minimize(bad, "broken_self_test");
    const MinimizeResult m2 =
        minimizer.minimize(bad, "broken_self_test");

    std::string out;
    out += "minimized: " + m1.minimized.plan + " (probes=" +
           std::to_string(m1.probes) + ")\n";

    bool ok = m1.stillFails;
    if (!m1.stillFails)
        out += "self-test FAILED: failure did not reproduce under "
               "minimization\n";
    if (statementCount(m1.minimized.plan) > 3) {
        ok = false;
        out += "self-test FAILED: minimized plan still has " +
               std::to_string(statementCount(m1.minimized.plan)) +
               " statements (want <= 3)\n";
    }
    if (m1.minimized.plan != m2.minimized.plan ||
        m1.probes != m2.probes) {
        ok = false;
        out += "self-test FAILED: minimization is not deterministic "
               "(got '" + m2.minimized.plan + "' on the second run)\n";
    }

    if (ok && !cli.campaign.reproDir.empty()) {
        // Exercise the repro-writing path end to end, so CI can
        // assert the artifact exists.
        CampaignFailure f;
        f.caseIndex = 0;
        f.original = bad;
        f.minimized = m1.minimized;
        f.failure = {"broken_self_test", "self-test pipeline proof"};
        f.probes = m1.probes;
        const std::string path =
            cli.campaign.reproDir + "/repro_selftest.txt";
        writeArtifact(path, renderRepro(f), "--repro-dir");
        out += "repro written: " + path + "\n";
    }

    out += ok ? "self-test ok: find -> minimize -> repro pipeline "
                "fired\n"
              : "";
    flushAtomically(out, stdout);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const FuzzCliParse parse = parseFuzzCli(argc, argv);
    if (parse.exitCode == 0) {
        std::fputs(fuzzCliUsage(), stdout);
        return 0;
    }
    if (parse.exitCode > 0) {
        std::fprintf(stderr, "xmig_fuzz: %s\n\n%s",
                     parse.error.c_str(), fuzzCliUsage());
        return parse.exitCode;
    }
    const FuzzCliOptions &cli = parse.options;

    if (cli.mode == FuzzCliOptions::Mode::Replay)
        return replayMode(cli);
    if (cli.mode == FuzzCliOptions::Mode::SelfTest)
        return selfTestMode(cli);

    const CampaignConfig &config = cli.campaign;
    const PropertyHarness harness;
    const JobPool pool(cli.jobs);
    if (cli.verbose)
        std::fprintf(stderr,
                     "xmig_fuzz: seed=%llu plans=%llu jobs=%u "
                     "instr=%llu\n",
                     (unsigned long long)cli.seed,
                     (unsigned long long)config.plans, pool.jobs(),
                     (unsigned long long)config.instructions);

    std::unique_ptr<CaseSource> source;
    if (cli.mode == FuzzCliOptions::Mode::Guided)
        source = std::make_unique<CoverageGuidedGenerator>(
            cli.seed, cli.stormWorkloads ? stormPool(config.benchmark)
                                         : std::vector<std::string>());
    else
        source = std::make_unique<UniformSource>(cli.seed);
    const CampaignResult result =
        runCampaign(config, *source, harness, pool);
    flushAtomically(result.summary(), stdout);
    return result.failures.empty() ? 0 : 1;
}
