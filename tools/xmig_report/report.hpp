/**
 * @file
 * xmig-lens run reports: joins the per-run artifacts (event journal
 * JSONL, metrics JSONL, time-series CSV) into human-readable reports,
 * causal explanations and run-to-run diffs.
 *
 * The library is UI-free string-to-string transforms so
 * tests/test_report.cpp can drive it on in-memory fixtures; the CLI
 * (main.cpp) wraps it with file I/O and exit-code policy:
 *
 *   xmig_report report  [--journal J] [--metrics M] [--samples S]
 *   xmig_report explain N --journal J
 *   xmig_report diff A B                (also: xmig_report --diff A B)
 *
 * diff auto-detects whether A and B are metrics JSONL dumps or event
 * journals and compares them like diff(1): it lists every numeric
 * delta and note, and says whether the two runs differ.
 *
 * Exit codes (CLI): 0 identical / informational, 1 the diffed runs
 * differ, 3 usage or I/O error.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xmig::report {

/** What a text blob turned out to be. */
enum class InputKind
{
    Metrics, ///< metrics registry JSONL ({"name":...} per line)
    Journal, ///< xmig-lens event journal JSONL
    Samples, ///< time-series CSV ("t,interval,..." header)
    Unknown,
};

const char *inputKindName(InputKind kind);

/** Sniff the artifact type from its first bytes. */
InputKind detectInput(const std::string &text);

// ----- event journal ---------------------------------------------------

/** One parsed journal event. */
struct ReportEvent
{
    uint64_t seq = 0;
    uint64_t t = 0;
    std::string kind;
    std::string cause;
    /// Per-kind named payload, in emission order (e.g. from/to/n).
    std::vector<std::pair<std::string, double>> args;

    /** First arg named `name`, or `fallback`. */
    double arg(const std::string &name, double fallback = 0.0) const;
};

/** A parsed journal dump. */
struct JournalDoc
{
    bool ok = false;
    std::string error;
    uint64_t capacity = 0;
    uint64_t recorded = 0;
    uint64_t dropped = 0;
    std::string incident; ///< non-empty if the dump was an incident
    std::vector<ReportEvent> events;
};

JournalDoc parseJournal(const std::string &text);

// ----- metrics ---------------------------------------------------------

/** One metrics-registry JSONL row. */
struct MetricRow
{
    std::string name;
    std::string kind; ///< "counter" | "gauge" | "histogram"
    double value = 0.0;
    bool hasPercentiles = false;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0, p999 = 0.0;
};

struct MetricsDoc
{
    bool ok = false;
    std::string error;
    std::vector<MetricRow> rows;

    const MetricRow *find(const std::string &name) const;
};

MetricsDoc parseMetrics(const std::string &text);

// ----- reports ---------------------------------------------------------

/**
 * Render the joined run report: journal headline + per-kind/cause
 * breakdown and timeline tail, metric headlines and every histogram's
 * percentiles, and the time-series shape. Any input may be empty.
 */
std::string renderReport(const std::string &journalText,
                         const std::string &metricsText,
                         const std::string &samplesText);

/**
 * Causal chain for migration `n` (the journal's own migration count,
 * 1-based): every event from the previous migration (exclusive) to
 * migration `n` (inclusive), plus a verdict line naming the cause and
 * the A_R / filter state at the decision. Errors render as a line
 * starting with "error:".
 */
std::string renderExplain(const JournalDoc &doc, uint64_t n);

// ----- diff ----------------------------------------------------------

/** One numeric difference between runs A and B. */
struct Delta
{
    std::string key;
    double a = 0.0;
    double b = 0.0;
};

struct DiffResult
{
    InputKind kind = InputKind::Unknown;
    bool ok = false; ///< inputs parsed and were comparable
    std::string error;
    std::vector<Delta> deltas;
    std::vector<std::string> notes; ///< e.g. first journal divergence

    /** Any delta or note: the two runs are not the same. */
    bool differ() const { return !deltas.empty() || !notes.empty(); }

    std::string render() const;
};

/**
 * Compare two artifacts of the same kind. Identical inputs yield zero
 * deltas and no notes.
 */
DiffResult diffTexts(const std::string &a, const std::string &b);

} // namespace xmig::report
