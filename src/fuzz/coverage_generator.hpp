/**
 * @file
 * xmig-storm guided generation: a seeded bandit that biases plan
 * sampling toward the recovery/injection counters a campaign has not
 * lit up yet.
 *
 * The guidance loop is classic coverage-guided fuzzing, transplanted
 * from edge coverage to the machine's counter surface:
 *
 *   1. draw a case — either a fresh plan composed site by site, or a
 *      mutation of a corpus entry that previously earned coverage;
 *   2. run it (PropertyHarness), fold its coverage surface into the
 *      campaign map (fuzz/coverage.hpp);
 *   3. cases that earned novel (counter, bucket) features join the
 *      corpus, and the map reshapes the per-site weights of the
 *      next draw.
 *
 * The bandit is a deterministic weight table, not a learned model:
 * each actuator site's weight grows with the number of unlit or
 * low-magnitude counters it is known to influence (see sitesFor).
 * Everything draws from one seeded Rng on the caller thread, and
 * feedback is applied in case-index order, so a guided campaign is
 * byte-stable at any `--jobs` — same contract as the uniform one.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/coverage.hpp"
#include "fuzz/plan_generator.hpp"
#include "fuzz/property_harness.hpp"
#include "util/rng.hpp"

namespace xmig {

/**
 * Where a campaign's cases come from (fuzz/campaign.hpp). The
 * campaign calls both methods on its own thread, in case-index
 * order, and folds the coverage itself.
 */
class CaseSource
{
  public:
    virtual ~CaseSource() = default;

    /**
     * Draw the next case. `benchmark` is the campaign's workload,
     * `instructions` is copied through, and `coverage` is the
     * campaign-wide map folded so far.
     */
    virtual FuzzCase next(const std::string &benchmark,
                          uint64_t instructions,
                          const CoverageMap &coverage) = 0;

    /** An executed case earned novel coverage features. */
    virtual void admit(const FuzzCase &) {}
};

/**
 * Coverage-guided FuzzCase source. Same (seed, workload pool,
 * coverage and admit sequence) => same case sequence, bit for bit.
 */
class CoverageGuidedGenerator : public CaseSource
{
  public:
    /**
     * `workloadPool` lists the workloads a plan may be paired with;
     * empty = every case keeps the campaign's benchmark. Order
     * matters for determinism: pass a fixed order, not a hash-map
     * iteration.
     */
    explicit CoverageGuidedGenerator(
        uint64_t seed, std::vector<std::string> workloadPool = {});

    /**
     * Draw the next case: a fresh plan, or a mutation of a corpus
     * entry, with sites weighted by what `coverage` has not lit.
     */
    FuzzCase next(const std::string &benchmark, uint64_t instructions,
                  const CoverageMap &coverage) override;

    /** Keep `c`'s plan in the corpus (oldest entries evicted). */
    void admit(const FuzzCase &c) override;

    /**
     * Actuator sites known to influence the counter at `path` —
     * the static causality table behind the bandit weights (e.g.
     * `*.recovery.mig_timeouts` is reached by dropping migrations,
     * so it maps to MigDrop). Empty for counters no plan statement
     * can force (watchdog counters fire on workload pathology).
     */
    static std::vector<FaultSite> sitesFor(const std::string &path);

  private:
    void reweigh(const CoverageMap &coverage);
    FaultSite pickSite();
    FuzzPlan compose();
    FuzzPlan mutate(const std::string &spec);
    void appendGuided(std::vector<std::string> &out, uint64_t &tick);
    std::string pickBenchmark(const std::string &fallback);

    std::vector<std::string> workloadPool_;
    PlanGenerator gen_;
    Rng rng_;
    std::vector<uint64_t> weights_; ///< per site, set by reweigh()
    std::vector<std::string> corpus_; ///< plan specs that earned coverage
};

} // namespace xmig
