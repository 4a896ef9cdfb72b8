#include "fuzz/soak.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <dirent.h>
#include <set>
#include <sstream>
#include <sys/stat.h>
#include <sys/types.h>

#include "multicore/machine.hpp"
#include "obs/journal.hpp"
#include "sim/runner/job_pool.hpp"
#include "util/contracts.hpp"
#include "util/logging.hpp"
#include "workloads/registry.hpp"

namespace xmig {

namespace {

size_t
statementCount(const std::string &spec)
{
    if (spec.empty())
        return 0;
    size_t n = 1;
    for (char c : spec)
        n += c == ';' ? 1 : 0;
    return n;
}

/** FNV-1a 64 over `s` — the content address of a corpus entry. */
uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = 14695981039346656037ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

void
writeFileOrDie(const std::string &path, const std::string &body)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        XMIG_FATAL("cannot write soak file '%s'", path.c_str());
    const size_t n = std::fwrite(body.data(), 1, body.size(), f);
    const bool ok = n == body.size() && std::fclose(f) == 0;
    if (!ok)
        XMIG_FATAL("short write to soak file '%s'", path.c_str());
}

bool
slurp(const std::string &path, std::string *out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return false;
    std::string body;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        body.append(buf, n);
    std::fclose(f);
    *out = std::move(body);
    return true;
}

void
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0755) == 0)
        return;
    struct stat st = {};
    if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
        return;
    XMIG_FATAL("cannot create soak directory '%s'", path.c_str());
}

/** Corpus entry file names in `dir`, sorted (deterministic load). */
std::vector<std::string>
listCorpusEntries(const std::string &dir)
{
    std::vector<std::string> names;
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return names;
    while (const struct dirent *e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name.rfind("case-", 0) == 0 && name.size() > 9 &&
            name.compare(name.size() - 4, 4, ".txt") == 0)
            names.push_back(name);
    }
    ::closedir(d);
    std::sort(names.begin(), names.end());
    return names;
}

/**
 * Re-run one case with an xmig-lens journal attached and write the
 * JSONL next to its repro. The journal is an observer (PR 7), so the
 * re-run retires the exact same stream the harness saw.
 */
bool
writeJournalFor(const FuzzCase &c, const std::string &path)
{
    FaultPlan plan;
    std::string error;
    if (!FaultPlan::parse(c.plan, &plan, &error))
        return false;

    RefRecorder recorder;
    makeWorkload(c.benchmark)
        ->run(recorder, c.instructions, c.workloadSeed);

    MachineConfig config;
    config.faultPlan = c.plan;
    MigrationMachine machine(config);
    obs::Journal journal;
    machine.attachJournal(&journal);
    for (const MemRef &ref : recorder.refs())
        machine.access(ref);
    return journal.writeJsonl(path);
}

} // namespace

std::string
renderCorpusEntry(const FuzzCase &c)
{
    std::ostringstream out;
    out << "plan=" << c.plan << "\n"
        << "benchmark=" << c.benchmark << "\n"
        << "workload_seed=" << c.workloadSeed << "\n"
        << "instructions=" << c.instructions << "\n";
    return out.str();
}

std::string
corpusEntryName(const FuzzCase &c)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(renderCorpusEntry(c))));
    return std::string("case-") + buf + ".txt";
}

bool
parseCorpusEntry(const std::string &body, FuzzCase *out)
{
    FuzzCase c;
    bool sawPlan = false;
    size_t pos = 0;
    while (pos < body.size()) {
        size_t eol = body.find('\n', pos);
        if (eol == std::string::npos)
            eol = body.size();
        const std::string line = body.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty() || line[0] == '#')
            continue;
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            return false;
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        if (key == "plan") {
            // "" parses as a no-fault plan, but a corpus entry that
            // injects nothing is dead weight: reject it.
            if (value.empty())
                return false;
            c.plan = value;
            sawPlan = true;
        } else if (key == "benchmark") {
            if (value.empty())
                return false;
            c.benchmark = value;
        } else if (key == "workload_seed") {
            c.workloadSeed =
                std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "instructions") {
            c.instructions =
                std::strtoull(value.c_str(), nullptr, 10);
            if (c.instructions == 0)
                return false;
        } else {
            return false;
        }
    }
    if (!sawPlan)
        return false;
    FaultPlan parsed;
    std::string error;
    if (!FaultPlan::parse(c.plan, &parsed, &error))
        return false;
    *out = std::move(c);
    return true;
}

std::string
SoakResult::summary() const
{
    std::ostringstream out;
    out << "soak: cases=" << cases << " refs=" << refs
        << " faults_injected=" << faultsInjected
        << " failures=" << failures.size()
        << " corpus_loaded=" << corpusLoaded
        << " corpus_saved=" << corpusSaved << "\n";
    for (const SoakFailure &f : failures) {
        out << "FAIL case=" << f.caseIndex
            << " oracle=" << f.failure.oracle
            << " statements=" << statementCount(f.minimized.plan)
            << " plan=" << f.minimized.plan;
        if (!f.reproPath.empty())
            out << " repro=" << f.reproPath;
        if (!f.journalPath.empty())
            out << " journal=" << f.journalPath;
        out << "\n";
    }
    out << "oracle_failures:";
    std::vector<std::pair<std::string, uint64_t>> counts;
    for (const SoakFailure &f : failures) {
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
    if (counts.empty()) {
        out << " none";
    } else {
        for (const auto &entry : counts)
            out << ' ' << entry.first << '=' << entry.second;
    }
    out << "\n" << coverage.reportLine() << "\n";
    return out.str();
}

SoakResult
runSoak(const SoakConfig &config, const PropertyHarness &harness,
        const JobPool &pool)
{
    XMIG_ASSERT(config.budget > 0, "soak needs a case budget");
    XMIG_ASSERT(config.batch > 0, "batch must be positive");

    GuidedConfig g = config.guided;
    g.generator = config.campaign.generator;
    CoverageGuidedGenerator generator(config.campaign.seed, g);

    if (!config.corpusDir.empty())
        ensureDir(config.corpusDir);
    if (!config.campaign.reproDir.empty())
        ensureDir(config.campaign.reproDir);

    // Load the persisted corpus (sorted name order): these cases are
    // replayed first — they warm the coverage map and re-admit their
    // plans into the generator's in-memory corpus.
    std::vector<FuzzCase> loaded;
    std::set<std::string> known; // entry names already on disk
    if (!config.corpusDir.empty()) {
        for (const std::string &name :
             listCorpusEntries(config.corpusDir)) {
            known.insert(name);
            std::string body;
            FuzzCase c;
            if (slurp(config.corpusDir + "/" + name, &body) &&
                parseCorpusEntry(body, &c)) {
                loaded.push_back(std::move(c));
            } else {
                XMIG_WARN("skipping corrupt corpus entry '%s'",
                          name.c_str());
            }
        }
    }
    if (loaded.size() > config.budget)
        loaded.resize(static_cast<size_t>(config.budget));

    SoakResult out;

    // One failure pipeline for replayed and generated cases alike:
    // minimize, write the repro, arm a journaled re-run.
    const auto handleFailure = [&](uint64_t case_index,
                                   const FuzzCase &c,
                                   const OracleFailure &first) {
        SoakFailure f;
        f.caseIndex = case_index;
        f.original = c;
        f.minimized = c;
        f.failure = first;
        if (config.campaign.minimize) {
            PlanMinimizer minimizer(harness,
                                    config.campaign.minimizer);
            const MinimizeResult m =
                minimizer.minimize(c, first.oracle);
            if (m.stillFails)
                f.minimized = m.minimized;
            else
                XMIG_WARN("soak case %llu failure (%s) did not "
                          "reproduce under minimization; keeping the "
                          "full plan",
                          static_cast<unsigned long long>(case_index),
                          first.oracle.c_str());
        }
        if (!config.campaign.reproDir.empty()) {
            const std::string stem = config.campaign.reproDir +
                                     "/soak_repro_case" +
                                     std::to_string(case_index);
            f.reproPath = stem + ".txt";
            CampaignFailure render;
            render.caseIndex = case_index;
            render.original = f.original;
            render.minimized = f.minimized;
            render.failure = f.failure;
            writeFileOrDie(f.reproPath, renderRepro(render));
            if (config.journal) {
                const std::string jpath = stem + ".journal.jsonl";
                if (writeJournalFor(f.minimized, jpath))
                    f.journalPath = jpath;
            }
        }
        out.failures.push_back(std::move(f));
    };

    // Execute a slice of cases and fold everything back in
    // case-index order on this thread (byte-stable at any --jobs).
    uint64_t case_index = 0;
    const auto runSlice = [&](const std::vector<FuzzCase> &slice,
                              bool persist_novel) {
        const std::vector<CaseResult> results =
            runIndexed<CaseResult>(pool, slice.size(), [&](size_t i) {
                return harness.run(slice[i]);
            });
        for (size_t i = 0; i < slice.size(); ++i) {
            out.refs += results[i].refs;
            out.faultsInjected += results[i].faultsInjected;
            const unsigned novel =
                generator.feedback(slice[i], results[i].coverage);
            if (novel > 0 && persist_novel &&
                !config.corpusDir.empty()) {
                const std::string name = corpusEntryName(slice[i]);
                if (known.insert(name).second) {
                    writeFileOrDie(config.corpusDir + "/" + name,
                                   renderCorpusEntry(slice[i]));
                    ++out.corpusSaved;
                }
            }
            if (results[i].failed())
                handleFailure(case_index, slice[i],
                              results[i].failures.front());
            ++case_index;
        }
    };

    // Phase 1: corpus replay (already persisted — don't re-save).
    if (!loaded.empty()) {
        runSlice(loaded, false);
        out.corpusLoaded = loaded.size();
    }

    // Phase 2: guided batches for the remaining budget.
    while (case_index < config.budget) {
        const size_t n = static_cast<size_t>(std::min<uint64_t>(
            config.batch, config.budget - case_index));
        std::vector<FuzzCase> slice;
        slice.reserve(n);
        for (size_t i = 0; i < n; ++i)
            slice.push_back(
                generator.next(config.campaign.benchmark,
                               config.campaign.instructions));
        runSlice(slice, true);
    }

    out.cases = case_index;
    out.coverage = generator.coverage();
    return out;
}

} // namespace xmig
