/**
 * @file
 * xmig-sentinel: a project-specific determinism & concurrency linter.
 *
 * The repo's reproduction methodology rests on one invariant: a run
 * is a pure function of (workload seed, config, fault plan). Table 2,
 * the --jobs byte-equality proofs, fault-plan replay and fuzzer repro
 * minimization all break *silently* if wall-clock time, ambient
 * randomness, unordered-container iteration order or an unguarded
 * data race leaks into a simulation path. TSan and the replay tests
 * catch those hazards dynamically, when a schedule happens to expose
 * them; this linter catches the textual patterns statically, on every
 * build.
 *
 * Deliberately dependency-free: a hand-rolled tokenizer over each
 * translation unit, no LLVM libraries. The rules are heuristic —
 * they aim at this codebase's idioms, not the C++ grammar — and every
 * rule can be locally silenced with a justified suppression:
 *
 *     // xmig-lint: allow(rule-id) -- why this site is safe
 *
 * on the finding's line or the line above. Suppressions without the
 * `-- why` justification are themselves findings (`bad-suppression`).
 *
 * Rule catalogue (docs/analysis.md has the full policy):
 *   no-wallclock       wall-clock / ambient-randomness primitives
 *                      (time, clock, steady_clock, system_clock,
 *                      random_device, rand, ...) outside the
 *                      profiling subsystem (src/obs/prof.*).
 *   unordered-output   range-for / .begin() iteration over a
 *                      std::unordered_{map,set} in a file that also
 *                      writes CSV/JSONL/trace output — iteration
 *                      order is implementation-defined, so sort keys
 *                      at the export boundary instead.
 *   pointer-order      ordering or hashing raw pointer *values*
 *                      where the result can reach output: pointer-
 *                      keyed std::{map,set,unordered_map,
 *                      unordered_set}, std::hash<T*>, and
 *                      (u)intptr_t casts.
 *   naked-mutex        a std::mutex / std::shared_mutex member with
 *                      no XMIG_GUARDED_BY / XMIG_REQUIRES / ... in
 *                      the same file naming it — locks must declare
 *                      what they protect
 *                      (src/util/thread_annotations.hpp).
 *   contract-coverage  an out-of-line non-const method in src/core/
 *                      or src/multicore/ whose body is non-trivial
 *                      yet contains no XMIG_ASSERT / XMIG_AUDIT /
 *                      XMIG_EXPECT site.
 *   journal-in-hot-loop  a direct journal method call
 *                      (x->record(...) / x.setClock(...) /
 *                      x->dumpNow(...)) in src/ outside src/obs/ —
 *                      bare calls bypass the XMIG_JOURNAL macro
 *                      family, so they skip its null check and
 *                      evaluate their arguments even when no journal
 *                      is attached.
 *   alloc-in-hot-loop  heap allocation (new, malloc, push_back,
 *                      make_unique, ...) or per-reference dispatch
 *                      through a virtual seam (x.lookup()/x.store()
 *                      on the OeStore interface, unqualified
 *                      reference()/access() re-entry) inside a
 *                      *Batch function body — the xmig-bolt batched
 *                      hot paths exist to amortize exactly that
 *                      per-reference overhead
 *                      (docs/parallelism.md, "batching").
 *   bad-suppression    a malformed xmig-lint comment (unknown rule
 *                      id, or no justification).
 *
 * Findings not matched by the checked-in baseline
 * (.xmig-lint-baseline) fail the run; the baseline is keyed on
 * (rule, file, source-line text), so line-number drift does not
 * invalidate it. The intended steady state is an *empty* baseline.
 */

#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace xmig::lint {

/** One rule violation at a source location. */
struct Finding
{
    std::string file;     ///< path as given (repo-relative in CI)
    unsigned line = 0;    ///< 1-based
    std::string rule;     ///< rule id, e.g. "no-wallclock"
    std::string message;  ///< human-readable explanation
    std::string lineText; ///< trimmed source line (baseline key part)
};

/** All rule ids the tool knows, in reporting order. */
const std::vector<std::string> &allRules();

/** True if `rule` is a known rule id. */
bool knownRule(const std::string &rule);

/**
 * Lint a set of files given as (path, content) pairs. Two passes:
 * the first collects the names of std::unordered_{map,set} variables
 * and members across *all* files (members are declared in headers
 * but iterated in .cpp files), the second runs the per-file rules.
 * Findings are ordered by (file, line, rule).
 */
std::vector<Finding>
lintFiles(const std::vector<std::pair<std::string, std::string>> &files);

/** Convenience wrapper: lint one in-memory file. */
std::vector<Finding> lintFile(const std::string &path,
                              const std::string &content);

/** Stable identity of a finding: "rule|file|trimmed line text". */
std::string baselineKey(const Finding &finding);

/**
 * Parse a baseline document (one baselineKey per line; blank lines
 * and lines starting with '#' ignored).
 */
std::multiset<std::string> parseBaseline(const std::string &content);

/** Render findings as a baseline document (sorted, commented). */
std::string renderBaseline(const std::vector<Finding> &findings);

/**
 * Split findings into (new, baselined) against a baseline multiset.
 * Each baseline entry absolves at most one finding.
 */
std::pair<std::vector<Finding>, std::vector<Finding>>
partitionAgainstBaseline(const std::vector<Finding> &findings,
                         std::multiset<std::string> baseline);

/** `file:line: rule: message`, one finding per line. */
std::string renderText(const std::vector<Finding> &findings);

/** JSON array of finding objects. */
std::string renderJson(const std::vector<Finding> &findings);

/** SARIF 2.1.0 document (one run, one result per finding). */
std::string renderSarif(const std::vector<Finding> &findings);

/**
 * Extract the "file" entries of a compile_commands.json document.
 * Tolerant scanner, not a full JSON parser: good for the documents
 * CMake writes. Returns absolute paths as recorded.
 */
std::vector<std::string>
filesFromCompileCommands(const std::string &content);

} // namespace xmig::lint
