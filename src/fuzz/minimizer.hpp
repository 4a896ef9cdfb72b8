/**
 * @file
 * xmig-forge plan minimizer: delta-debugs a failing fault plan down
 * to a minimal deterministic repro.
 *
 * Three passes, each preserving "still fails with the same oracle":
 *
 *  1. ddmin over the statement list (classic delta debugging:
 *     complement removal with doubling granularity) — drops whole
 *     statements;
 *  2. value shrinking per surviving statement — `at=` ticks are
 *     halved toward 0, `rate=` values decayed toward 0;
 *  3. a final ddmin, since shrinking values can make more statements
 *     droppable.
 *
 * Every probe is one deterministic harness run, so minimization of a
 * given failure is itself reproducible; the probe budget bounds the
 * worst case.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fuzz/property_harness.hpp"

namespace xmig {

/**
 * Generic ddmin: shrink `items` to a (1-minimal-ish) subset for
 * which `fails` still returns true, probing at most `max_probes`
 * times. `fails` must hold for the full input. Returns the reduced
 * list; `probes_io` accumulates the probe count.
 */
std::vector<std::string>
ddmin(std::vector<std::string> items,
      const std::function<bool(const std::vector<std::string> &)> &fails,
      uint64_t max_probes, uint64_t &probes_io);

/** Minimization outcome. */
struct MinimizeResult
{
    FuzzCase minimized;     ///< input case with the reduced plan
    std::string oracle;     ///< the oracle the repro still trips
    uint64_t probes = 0;    ///< harness runs spent
    bool stillFails = false; ///< false: the failure did not reproduce
};

/** Delta-debugging driver over PropertyHarness. */
class PlanMinimizer
{
  public:
    /** Harness runs one minimization may spend. */
    static constexpr uint64_t kMaxProbes = 2'000;

    explicit PlanMinimizer(const PropertyHarness &harness)
        : harness_(harness)
    {
    }

    /**
     * Reduce `failing`'s plan while it keeps failing `oracle` (the
     * oracle id of the failure being chased). If the failure does
     * not reproduce on the first probe, returns the input unchanged
     * with stillFails == false.
     */
    MinimizeResult minimize(const FuzzCase &failing,
                            const std::string &oracle) const;

  private:
    const PropertyHarness &harness_;
};

} // namespace xmig
