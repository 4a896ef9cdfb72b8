/**
 * @file
 * xmig-forge campaigns: sharded, replayable fuzzing runs.
 *
 * One engine runs every campaign. Each round it draws a batch of
 * cases from a CaseSource on the caller thread, runs the batch on
 * the JobPool, folds the results back in case-index order, and sends
 * each failure through one pipeline: minimize it, write its repro,
 * then re-run it with an xmig-lens journal attached. The source is
 * the uniform PlanGenerator draw (UniformSource) or the
 * coverage-guided generator (fuzz/coverage_generator.hpp); a
 * corpus directory (fuzz/corpus.hpp) turns a guided campaign into a
 * standing soak.
 *
 * A campaign is fully determined by (source seed, config, corpus
 * contents): cases are drawn and fed back on the caller thread in
 * case-index order, and the batch size is a constant, independent of
 * the pool width — so the summary text and any repro files are
 * byte-identical at every --jobs value (the xmig-swift contract,
 * docs/parallelism.md).
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/coverage.hpp"
#include "fuzz/coverage_generator.hpp"
#include "fuzz/plan_generator.hpp"
#include "fuzz/property_harness.hpp"

namespace xmig {

class JobPool;

/** Campaign parameters. */
struct CampaignConfig
{
    uint64_t plans = 200; ///< case count, corpus replays included
    std::string benchmark = "181.mcf";
    uint64_t instructions = 150'000;
    bool minimize = true;

    /**
     * Directory for each failure's repro and journal files; created
     * if missing. Empty = don't write any.
     */
    std::string reproDir;

    /**
     * Persistent corpus directory (fuzz/corpus.hpp): its entries are
     * replayed first and every coverage-novel drawn case is saved to
     * it. Created if missing; empty = no corpus.
     */
    std::string corpusDir;
};

/**
 * The uniform case source: plans from a PlanGenerator, workload seeds
 * from a second stream of the same seed, coverage ignored. It is the
 * reference the guided source is measured against.
 */
class UniformSource : public CaseSource
{
  public:
    explicit UniformSource(uint64_t seed);

    FuzzCase next(const std::string &benchmark, uint64_t instructions,
                  const CoverageMap &coverage) override;

  private:
    PlanGenerator plans_;
    Rng seeder_;
};

/** One surviving (post-minimization) failure. */
struct CampaignFailure
{
    uint64_t caseIndex = 0;
    FuzzCase original;       ///< as generated
    FuzzCase minimized;      ///< == original when minimization is off
    OracleFailure failure;   ///< first failure of the case
    uint64_t probes = 0;     ///< minimizer probes spent
    std::string reproPath;   ///< file written, if reproDir was set
    std::string journalPath; ///< journal written next to the repro
};

/** Campaign outcome. */
struct CampaignResult
{
    uint64_t cases = 0;
    uint64_t refs = 0;           ///< total references simulated
    uint64_t faultsInjected = 0; ///< total injector firings
    bool corpus = false;         ///< a corpus directory was in use
    uint64_t corpusLoaded = 0;   ///< cases replayed from the corpus
    uint64_t corpusSaved = 0;    ///< novel cases written to it
    std::vector<CampaignFailure> failures;

    /**
     * Campaign-wide coverage (fuzz/coverage.hpp), folded once per
     * case in case-index order; the guided source reads it to pick
     * its next plans.
     */
    CoverageMap coverage;

    /**
     * Failure counts per oracle id, name-sorted (derived from
     * `failures`; each case contributes its first failure).
     */
    std::vector<std::pair<std::string, uint64_t>> oracleCounts() const;

    /**
     * Deterministic text summary (excludes jobs count and timing on
     * purpose: it must be byte-identical at any parallelism). The
     * first line carries the totals, plus the corpus counts when a
     * corpus was in use; then one FAIL line per failure, the
     * per-oracle failure counts and the coverage report line.
     */
    std::string summary() const;
};

/** Number of ';'-separated statements in a plan spec. */
size_t statementCount(const std::string &spec);

/**
 * The repro file body for one failure: the minimized plan plus
 * everything needed to replay it with `xmig_fuzz --replay`.
 */
std::string renderRepro(const CampaignFailure &f);

/**
 * Run a campaign of `config.plans` cases: replay the corpus, then
 * draw the rest from `source` in fixed-size batches, executing each
 * batch across `pool`.
 */
CampaignResult runCampaign(const CampaignConfig &config,
                           CaseSource &source,
                           const PropertyHarness &harness,
                           const JobPool &pool);

} // namespace xmig
