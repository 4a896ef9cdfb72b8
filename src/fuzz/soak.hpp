/**
 * @file
 * xmig-storm soak mode: a standing coverage-guided campaign with a
 * persistent corpus.
 *
 * A soak run is what a nightly fuzz farm executes: load the corpus a
 * previous run left behind, re-run it to warm the coverage map and
 * the guided generator, then spend the remaining case budget on
 * guided batches. Every coverage-novel case is persisted back to the
 * corpus directory under a content-addressed name (FNV-1a of its
 * canonical body, so re-finding the same case is a no-op and two
 * racing soak runs cannot corrupt each other's entries). Every
 * failure is ddmin-minimized before write-out and — when the
 * xmig-lens journal is compiled in — re-run once with a journal
 * attached, so the repro ships with the causal event history of the
 * failing run (`<repro>.journal.jsonl`).
 *
 * Determinism: a soak run is a pure function of (seed, config,
 * corpus-directory contents). Corpus files are loaded in sorted name
 * order, case drawing/feedback happens on the caller thread in
 * case-index order, and the summary is byte-stable at any --jobs.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/campaign.hpp"

namespace xmig {

class JobPool;

/** Soak parameters on top of the campaign/guidance configs. */
struct SoakConfig
{
    /**
     * Base campaign knobs (seed, benchmark, instructions, generator
     * and minimizer shape). `campaign.plans` is ignored — the soak
     * budget below is the case count. `campaign.reproDir` is where
     * minimized failures and their journals land; empty = cwd-less
     * soak, failures are kept in memory only.
     */
    CampaignConfig campaign;

    /** Guidance knobs (workload pool, biases, corpus capacity). */
    GuidedConfig guided;

    /** Total case budget, corpus replays included. */
    uint64_t budget = 512;

    /** Guided batch size (see runGuidedCampaign). */
    uint64_t batch = 16;

    /**
     * Persistent corpus directory. Created if missing; empty string
     * disables persistence (the in-memory corpus still guides).
     */
    std::string corpusDir;

    /**
     * Attach an xmig-lens journal to a re-run of each minimized
     * failure and write it next to the repro.
     */
    bool journal = true;
};

/** One minimized soak failure. */
struct SoakFailure
{
    uint64_t caseIndex = 0;
    FuzzCase original;
    FuzzCase minimized;
    OracleFailure failure;
    std::string reproPath;   ///< written file, if reproDir was set
    std::string journalPath; ///< written journal, if armed + compiled
};

/** Soak outcome. */
struct SoakResult
{
    uint64_t cases = 0;
    uint64_t refs = 0;
    uint64_t faultsInjected = 0;
    uint64_t corpusLoaded = 0; ///< cases replayed from corpusDir
    uint64_t corpusSaved = 0;  ///< novel cases written to corpusDir
    std::vector<SoakFailure> failures;
    CoverageMap coverage;

    /** Deterministic text summary (byte-stable at any --jobs). */
    std::string summary() const;
};

/**
 * Content-addressed corpus entry name for a case: "case-<16 hex>.txt"
 * over the canonical body renderCorpusEntry() writes.
 */
std::string corpusEntryName(const FuzzCase &c);

/** Canonical corpus file body (key=value lines). */
std::string renderCorpusEntry(const FuzzCase &c);

/**
 * Parse a corpus file body back into a case. Returns false (and
 * leaves `out` untouched) on malformed bodies — a soak run skips
 * them with a warning instead of dying on a corrupt corpus.
 */
bool parseCorpusEntry(const std::string &body, FuzzCase *out);

/** Run a soak campaign. */
SoakResult runSoak(const SoakConfig &config,
                   const PropertyHarness &harness, const JobPool &pool);

} // namespace xmig
