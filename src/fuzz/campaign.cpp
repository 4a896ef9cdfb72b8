#include "fuzz/campaign.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "fuzz/corpus.hpp"
#include "fuzz/minimizer.hpp"
#include "multicore/machine.hpp"
#include "obs/journal.hpp"
#include "sim/runner/job_pool.hpp"
#include "util/artifact.hpp"
#include "util/contracts.hpp"
#include "util/logging.hpp"
#include "workloads/registry.hpp"

namespace xmig {

namespace {

/**
 * Cases per round. Guided sources feed back between rounds, so this
 * is a guidance parameter, not a parallelism one: it never depends
 * on the pool width.
 */
constexpr std::ptrdiff_t kBatch = 16;

/**
 * Re-run one case with an xmig-lens journal attached and return the
 * JSONL. The journal is an observer (PR 7), so the re-run retires
 * the exact same stream the harness saw.
 */
std::string
journalFor(const FuzzCase &c)
{
    RefRecorder recorder;
    makeWorkload(c.benchmark)
        ->run(recorder, c.instructions, c.workloadSeed);

    MachineConfig config;
    config.faultPlan = c.plan;
    MigrationMachine machine(config);
    obs::Journal journal;
    machine.attachJournal(&journal);
    machine.accessBatch(recorder.refs().data(), recorder.refs().size());
    return journal.renderJsonl();
}

/**
 * The one failure pipeline: minimize the case, write its repro, then
 * re-run the minimized case with a journal attached.
 */
CampaignFailure
processFailure(const CampaignConfig &config,
               const PropertyHarness &harness, uint64_t case_index,
               const FuzzCase &c, const OracleFailure &first)
{
    CampaignFailure f;
    f.caseIndex = case_index;
    f.original = c;
    f.minimized = c;
    f.failure = first;
    if (config.minimize) {
        const MinimizeResult m =
            PlanMinimizer(harness).minimize(c, first.oracle);
        f.probes = m.probes;
        if (m.stillFails)
            f.minimized = m.minimized;
        else
            XMIG_WARN("case %llu failure (%s) did not reproduce "
                      "under minimization; keeping the full plan",
                      static_cast<unsigned long long>(case_index),
                      first.oracle.c_str());
    }
    if (!config.reproDir.empty()) {
        const std::string stem = config.reproDir + "/repro_case" +
                                 std::to_string(case_index);
        f.reproPath = stem + ".txt";
        f.journalPath = stem + ".journal.jsonl";
        writeArtifact(f.reproPath, renderRepro(f), "--repro-dir");
        writeArtifact(f.journalPath, journalFor(f.minimized),
                      "--repro-dir");
    }
    return f;
}

} // namespace

UniformSource::UniformSource(uint64_t seed)
    : plans_(seed), seeder_(seed ^ 0x9e3779b97f4a7c15ULL)
{
}

FuzzCase
UniformSource::next(const std::string &benchmark,
                    uint64_t instructions, const CoverageMap &)
{
    FuzzCase c;
    c.plan = plans_.next().spec();
    c.benchmark = benchmark;
    c.workloadSeed = seeder_.next() >> 1;
    c.instructions = instructions;
    return c;
}

size_t
statementCount(const std::string &spec)
{
    if (spec.empty())
        return 0;
    return 1 + static_cast<size_t>(
                   std::count(spec.begin(), spec.end(), ';'));
}

std::string
renderRepro(const CampaignFailure &f)
{
    std::ostringstream out;
    out << "# xmig-forge minimized repro (case " << f.caseIndex
        << ")\n"
        << "# replay: xmig_fuzz --replay '" << f.minimized.plan
        << "' --workload-seed " << f.minimized.workloadSeed
        << " --bench " << f.minimized.benchmark << " --instr "
        << f.minimized.instructions << "\n"
        << "plan=" << f.minimized.plan << "\n"
        << "benchmark=" << f.minimized.benchmark << "\n"
        << "workload_seed=" << f.minimized.workloadSeed << "\n"
        << "instructions=" << f.minimized.instructions << "\n"
        << "statements=" << statementCount(f.minimized.plan) << "\n"
        << "oracle=" << f.failure.oracle << "\n"
        << "original_plan=" << f.original.plan << "\n"
        << "detail=" << f.failure.detail << "\n";
    return out.str();
}

std::vector<std::pair<std::string, uint64_t>>
CampaignResult::oracleCounts() const
{
    std::vector<std::pair<std::string, uint64_t>> counts;
    for (const CampaignFailure &f : failures) {
        bool found = false;
        for (auto &entry : counts) {
            if (entry.first == f.failure.oracle) {
                ++entry.second;
                found = true;
                break;
            }
        }
        if (!found)
            counts.emplace_back(f.failure.oracle, 1);
    }
    std::sort(counts.begin(), counts.end());
    return counts;
}

std::string
CampaignResult::summary() const
{
    std::ostringstream out;
    out << "cases=" << cases << " refs=" << refs
        << " faults_injected=" << faultsInjected
        << " failures=" << failures.size();
    if (corpus)
        out << " corpus_loaded=" << corpusLoaded
            << " corpus_saved=" << corpusSaved;
    out << "\n";
    for (const CampaignFailure &f : failures) {
        out << "FAIL case=" << f.caseIndex
            << " oracle=" << f.failure.oracle
            << " statements=" << statementCount(f.minimized.plan)
            << " plan=" << f.minimized.plan;
        if (!f.reproPath.empty())
            out << " repro=" << f.reproPath
                << " journal=" << f.journalPath;
        out << "\n";
    }
    out << "oracle_failures:";
    const auto counts = oracleCounts();
    if (counts.empty()) {
        out << " none";
    } else {
        for (const auto &entry : counts)
            out << ' ' << entry.first << '=' << entry.second;
    }
    out << "\n" << coverage.reportLine() << "\n";
    return out.str();
}

CampaignResult
runCampaign(const CampaignConfig &config, CaseSource &source,
            const PropertyHarness &harness, const JobPool &pool)
{
    XMIG_ASSERT(config.plans > 0, "campaign needs at least one plan");

    if (!config.reproDir.empty())
        ensureDir(config.reproDir);

    CampaignResult out;
    out.corpus = !config.corpusDir.empty();
    std::vector<FuzzCase> replay;
    std::set<std::string> saved; // entry names already on disk
    if (out.corpus) {
        replay = loadCorpus(config.corpusDir, &saved);
        if (replay.size() > config.plans)
            replay.resize(static_cast<size_t>(config.plans));
        out.corpusLoaded = replay.size();
    }

    // A drawn case that lit new coverage joins the corpus, unless an
    // entry of the same content is already on disk.
    const auto saveNovel = [&](const FuzzCase &c) {
        const std::string name = corpusEntryName(c);
        if (!saved.insert(name).second)
            return;
        writeArtifact(config.corpusDir + "/" + name,
                      renderCorpusEntry(c), "--corpus");
        ++out.corpusSaved;
    };

    std::vector<FuzzCase> batch;
    while (out.cases < config.plans) {
        // Replayed cases come first, in batches of their own, so all
        // of their coverage is in before the source draws a case.
        batch.clear();
        if (out.cases < replay.size()) {
            const auto from = replay.begin() +
                              static_cast<std::ptrdiff_t>(out.cases);
            batch.assign(from, from + std::min<std::ptrdiff_t>(
                                          kBatch, replay.end() - from));
        } else {
            const uint64_t n = std::min<uint64_t>(
                kBatch, config.plans - out.cases);
            for (uint64_t i = 0; i < n; ++i)
                batch.push_back(source.next(config.benchmark,
                                            config.instructions,
                                            out.coverage));
        }

        const std::vector<CaseResult> results = runIndexed<CaseResult>(
            pool, batch.size(),
            [&](size_t i) { return harness.run(batch[i]); });

        // Fold back on this thread, in case-index order; minimization
        // probes are deterministic, so the failures are too.
        for (size_t i = 0; i < batch.size(); ++i) {
            const uint64_t index = out.cases++;
            const CaseResult &r = results[i];
            out.refs += r.refs;
            out.faultsInjected += r.faultsInjected;
            if (out.coverage.observe(r.coverage) > 0) {
                source.admit(batch[i]);
                if (out.corpus && index >= out.corpusLoaded)
                    saveNovel(batch[i]);
            }
            if (r.failed())
                out.failures.push_back(processFailure(
                    config, harness, index, batch[i],
                    r.failures.front()));
        }
    }
    return out;
}

} // namespace xmig
