/**
 * @file
 * Wall-clock profiling scopes for the simulation phases.
 *
 * XMIG_PROF_SCOPE("quadcore.run") at the top of a block records the
 * block's wall-clock time into the global ProfileRegistry, tracking
 * both *total* time (inclusive of nested scopes) and *self* time
 * (exclusive). Scopes are meant for phase granularity — a benchmark,
 * a warm-up, an export pass — not per-reference paths; each scope
 * costs two steady_clock reads. Host time stays out of the event
 * journal and its Chrome rendering, which are pure functions of the
 * simulated run; ProfileRegistry::report() prints the phase table.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/thread_annotations.hpp"

namespace xmig::obs {

/** Accumulated timing of one named scope. */
struct ProfEntry
{
    std::string name;
    uint64_t calls = 0;
    uint64_t totalNs = 0; ///< inclusive of nested scopes
    uint64_t childNs = 0; ///< time spent in nested scopes

    uint64_t
    selfNs() const
    {
        return totalNs >= childNs ? totalNs - childNs : 0;
    }
};

/**
 * Global accumulator of profiling scopes.
 */
class ProfileRegistry
{
  public:
    static ProfileRegistry &instance();

    void record(const char *name, uint64_t elapsed_ns,
                uint64_t child_ns);

    /**
     * All entries, in first-seen order. NOT synchronized: call only
     * when no scopes are live on other threads (i.e. after a sweep's
     * join) — the registry cannot hand out a stable reference under
     * concurrent record() calls. The analysis opt-out below encodes
     * exactly that quiescence argument.
     */
    const std::vector<ProfEntry> &
    entries() const XMIG_NO_THREAD_SAFETY_ANALYSIS
    {
        return entries_;
    }

    const ProfEntry *find(const std::string &name) const;

    /** AsciiTable report: phase, calls, total ms, self ms. */
    std::string report(const std::string &title =
                           "wall-clock profile (XMIG_PROF_SCOPE)") const;

    void reset();

  private:
    /**
     * Scopes close on every sweep worker (xmig-swift), so the
     * accumulator is mutex-guarded; two steady_clock reads dominate a
     * scope's cost anyway, and scopes are phase-, not per-reference-,
     * granular.
     */
    mutable std::mutex mutex_;
    /** small; linear lookup is fine */
    std::vector<ProfEntry> entries_ XMIG_GUARDED_BY(mutex_);
};

/**
 * RAII wall-clock scope; use through XMIG_PROF_SCOPE.
 */
class ProfScope
{
  public:
    explicit ProfScope(const char *name);
    ~ProfScope();

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    const char *name_;
    std::chrono::steady_clock::time_point start_;
    ProfScope *parent_;
    uint64_t childNs_ = 0;
};

} // namespace xmig::obs

#define XMIG_PROF_DETAIL_CONCAT2(a, b) a##b
#define XMIG_PROF_DETAIL_CONCAT(a, b) XMIG_PROF_DETAIL_CONCAT2(a, b)

/** Time the enclosing block as a named profiling phase. */
#define XMIG_PROF_SCOPE(name) \
    ::xmig::obs::ProfScope XMIG_PROF_DETAIL_CONCAT( \
        xmig_prof_scope_, __LINE__)(name)
