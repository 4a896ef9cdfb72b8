#include "report.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "obs/json.hpp"

namespace xmig::report {

namespace {

using obs::JValue;
using obs::parseJson;

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        if (end > start)
            lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return lines;
}

std::string
fmt(const char *pattern, ...)
{
    char buf[512];
    va_list args;
    va_start(args, pattern);
    std::vsnprintf(buf, sizeof(buf), pattern, args);
    va_end(args);
    return buf;
}

} // namespace

const char *
inputKindName(InputKind kind)
{
    switch (kind) {
      case InputKind::Metrics: return "metrics";
      case InputKind::Journal: return "journal";
      case InputKind::Samples: return "samples";
      case InputKind::Unknown: break;
    }
    return "unknown";
}

InputKind
detectInput(const std::string &text)
{
    size_t i = 0;
    while (i < text.size() &&
           (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' ||
            text[i] == '\r'))
        ++i;
    if (i >= text.size())
        return InputKind::Unknown;
    const size_t eol = std::min(text.find('\n', i), text.size());
    const std::string head = text.substr(i, eol - i);
    if (head.rfind("t,interval,", 0) == 0)
        return InputKind::Samples;
    if (text[i] != '{')
        return InputKind::Unknown;
    if (head.find("\"journal\"") != std::string::npos)
        return InputKind::Journal;
    if (head.find("\"name\"") != std::string::npos)
        return InputKind::Metrics;
    return InputKind::Unknown;
}

double
ReportEvent::arg(const std::string &name, double fallback) const
{
    for (const auto &[k, v] : args) {
        if (k == name)
            return v;
    }
    return fallback;
}

JournalDoc
parseJournal(const std::string &text)
{
    JournalDoc doc;
    const std::vector<std::string> lines = splitLines(text);
    if (lines.empty()) {
        doc.error = "empty journal";
        return doc;
    }
    JValue header;
    if (!parseJson(lines[0], &header) ||
        header.stringAt("journal") != "xmig-lens") {
        doc.error = "missing xmig-lens journal header";
        return doc;
    }
    doc.capacity = static_cast<uint64_t>(header.numberAt("capacity"));
    doc.recorded = static_cast<uint64_t>(header.numberAt("recorded"));
    doc.dropped = static_cast<uint64_t>(header.numberAt("dropped"));
    for (size_t i = 1; i < lines.size(); ++i) {
        JValue v;
        if (!parseJson(lines[i], &v)) {
            doc.error = fmt("line %zu: malformed JSON", i + 1);
            return doc;
        }
        if (v.get("incident") != nullptr) {
            doc.incident = v.stringAt("incident");
            continue;
        }
        ReportEvent event;
        event.seq = static_cast<uint64_t>(v.numberAt("seq"));
        event.t = static_cast<uint64_t>(v.numberAt("t"));
        event.kind = v.stringAt("kind");
        event.cause = v.stringAt("cause");
        for (const auto &[k, val] : v.object) {
            if (k == "seq" || k == "t" || k == "kind" || k == "cause")
                continue;
            if (val.kind == JValue::Kind::Number)
                event.args.emplace_back(k, val.number);
        }
        doc.events.push_back(std::move(event));
    }
    doc.ok = true;
    return doc;
}

const MetricRow *
MetricsDoc::find(const std::string &name) const
{
    for (const MetricRow &row : rows) {
        if (row.name == name)
            return &row;
    }
    return nullptr;
}

MetricsDoc
parseMetrics(const std::string &text)
{
    MetricsDoc doc;
    for (const std::string &line : splitLines(text)) {
        JValue v;
        if (!parseJson(line, &v) || v.get("name") == nullptr) {
            doc.error = "malformed metrics line: " + line;
            return doc;
        }
        MetricRow row;
        row.name = v.stringAt("name");
        row.kind = v.stringAt("kind");
        row.value = v.numberAt("value");
        if (v.get("p50") != nullptr) {
            row.hasPercentiles = true;
            row.p50 = v.numberAt("p50");
            row.p95 = v.numberAt("p95");
            row.p99 = v.numberAt("p99");
            row.p999 = v.numberAt("p999");
        }
        doc.rows.push_back(std::move(row));
    }
    doc.ok = !doc.rows.empty();
    if (!doc.ok && doc.error.empty())
        doc.error = "empty metrics dump";
    return doc;
}

// ----- reports ---------------------------------------------------------

namespace {

std::string
renderJournalSection(const std::string &text)
{
    const JournalDoc doc = parseJournal(text);
    if (!doc.ok)
        return "journal: error: " + doc.error + "\n";
    std::string out = fmt(
        "journal: %zu event(s) (recorded %llu, dropped %llu, "
        "capacity %llu)\n",
        doc.events.size(), (unsigned long long)doc.recorded,
        (unsigned long long)doc.dropped,
        (unsigned long long)doc.capacity);
    if (!doc.incident.empty())
        out += "  INCIDENT DUMP: " + doc.incident + "\n";
    if (!doc.events.empty()) {
        out += fmt("  time range: t=%llu .. t=%llu\n",
                   (unsigned long long)doc.events.front().t,
                   (unsigned long long)doc.events.back().t);
    }
    // Per-(kind, cause) breakdown, in first-seen order.
    std::vector<std::pair<std::string, uint64_t>> counts;
    for (const ReportEvent &e : doc.events) {
        const std::string key = e.kind + " / " + e.cause;
        auto it = std::find_if(counts.begin(), counts.end(),
                               [&](const auto &p) {
                                   return p.first == key;
                               });
        if (it == counts.end())
            counts.emplace_back(key, 1);
        else
            ++it->second;
    }
    for (const auto &[key, n] : counts)
        out += fmt("  %8llu  %s\n", (unsigned long long)n, key.c_str());
    return out;
}

std::string
renderEventLine(const ReportEvent &e)
{
    std::string out = fmt("  t=%-10llu seq=%-6llu %-18s %-15s",
                          (unsigned long long)e.t,
                          (unsigned long long)e.seq, e.kind.c_str(),
                          e.cause.c_str());
    for (const auto &[k, v] : e.args)
        out += fmt(" %s=%lld", k.c_str(), (long long)v);
    out += "\n";
    return out;
}

std::string
renderMetricsSection(const std::string &text)
{
    const MetricsDoc doc = parseMetrics(text);
    if (!doc.ok)
        return "metrics: error: " + doc.error + "\n";
    std::string out =
        fmt("metrics: %zu row(s)\n", doc.rows.size());
    for (const char *name :
         {"machine.refs", "machine.migrations", "machine.l2_misses",
          "machine.controller.recovery.resplits",
          "machine.controller.recovery.live_cores"}) {
        if (const MetricRow *row = doc.find(name))
            out += fmt("  %-45s %.0f\n", name, row->value);
    }
    bool header = false;
    for (const MetricRow &row : doc.rows) {
        if (!row.hasPercentiles)
            continue;
        if (!header) {
            out += fmt("  %-45s %10s %10s %10s %10s %10s\n",
                       "histogram", "count", "p50", "p95", "p99",
                       "p999");
            header = true;
        }
        out += fmt("  %-45s %10.0f %10.1f %10.1f %10.1f %10.1f\n",
                   row.name.c_str(), row.value, row.p50, row.p95,
                   row.p99, row.p999);
    }
    return out;
}

std::string
renderSamplesSection(const std::string &text)
{
    const std::vector<std::string> lines = splitLines(text);
    if (lines.empty())
        return "samples: error: empty CSV\n";
    size_t columns = 1;
    for (const char c : lines[0])
        columns += c == ',' ? 1 : 0;
    return fmt("samples: %zu row(s) x %zu column(s)\n",
               lines.size() - 1, columns);
}

} // namespace

std::string
renderReport(const std::string &journalText,
             const std::string &metricsText,
             const std::string &samplesText)
{
    std::string out = "xmig-lens run report\n";
    if (!journalText.empty())
        out += renderJournalSection(journalText);
    if (!metricsText.empty())
        out += renderMetricsSection(metricsText);
    if (!samplesText.empty())
        out += renderSamplesSection(samplesText);
    if (journalText.empty() && metricsText.empty() &&
        samplesText.empty())
        out += "  (no inputs)\n";
    return out;
}

std::string
renderExplain(const JournalDoc &doc, uint64_t n)
{
    if (!doc.ok)
        return "error: " + doc.error + "\n";
    // Locate migration n by its own payload ("n" is the machine's
    // running migration count at completion), not by array position:
    // a wrapped ring may have dropped earlier migrations.
    size_t at = doc.events.size();
    for (size_t i = 0; i < doc.events.size(); ++i) {
        const ReportEvent &e = doc.events[i];
        if (e.kind == "migration" &&
            static_cast<uint64_t>(e.arg("n")) == n) {
            at = i;
            break;
        }
    }
    if (at == doc.events.size()) {
        return fmt("error: migration %llu is not in the journal "
                   "(ring kept %zu event(s), dropped %llu)\n",
                   (unsigned long long)n, doc.events.size(),
                   (unsigned long long)doc.dropped);
    }
    // The causal window opens after the previous migration.
    size_t start = 0;
    for (size_t i = at; i-- > 0;) {
        if (doc.events[i].kind == "migration") {
            start = i + 1;
            break;
        }
    }
    const ReportEvent &m = doc.events[at];
    std::string out = fmt(
        "migration %llu: core %lld -> %lld at t=%llu (%s)\n",
        (unsigned long long)n, (long long)m.arg("from"),
        (long long)m.arg("to"), (unsigned long long)m.t,
        m.cause.c_str());
    out += fmt("  decision state: A_R=%lld filter=%lld\n",
               (long long)m.arg("ar"), (long long)m.arg("filter"));
    out += fmt("causal chain (%zu event(s) since migration %llu):\n",
               at - start + 1, (unsigned long long)(n - 1));
    for (size_t i = start; i <= at; ++i)
        out += renderEventLine(doc.events[i]);
    return out;
}

// ----- diff ----------------------------------------------------------

namespace {

void
diffNumberMaps(const std::map<std::string, double> &a,
               const std::map<std::string, double> &b,
               DiffResult *out)
{
    for (const auto &[key, va] : a) {
        const auto it = b.find(key);
        if (it == b.end()) {
            out->notes.push_back("only in A: " + key);
            continue;
        }
        if (va != it->second)
            out->deltas.push_back({key, va, it->second});
    }
    for (const auto &[key, vb] : b) {
        (void)vb;
        if (a.find(key) == a.end())
            out->notes.push_back("only in B: " + key);
    }
}

std::string
eventBrief(const ReportEvent &e)
{
    return fmt("%s/%s@t=%llu", e.kind.c_str(), e.cause.c_str(),
               (unsigned long long)e.t);
}

void
diffJournals(const std::string &ta, const std::string &tb,
             DiffResult *out)
{
    const JournalDoc a = parseJournal(ta);
    const JournalDoc b = parseJournal(tb);
    if (!a.ok || !b.ok) {
        out->error = "journal parse: " + (a.ok ? b.error : a.error);
        return;
    }
    out->ok = true;
    // Per-kind counts: the causal shape of the run.
    std::map<std::string, double> ca, cb;
    for (const ReportEvent &e : a.events)
        ++ca["count." + e.kind + "." + e.cause];
    for (const ReportEvent &e : b.events)
        ++cb["count." + e.kind + "." + e.cause];
    ca["recorded"] = static_cast<double>(a.recorded);
    cb["recorded"] = static_cast<double>(b.recorded);
    diffNumberMaps(ca, cb, out);
    // First divergent event, by position in the surviving window.
    const size_t n = std::min(a.events.size(), b.events.size());
    for (size_t i = 0; i < n; ++i) {
        const ReportEvent &ea = a.events[i];
        const ReportEvent &eb = b.events[i];
        if (ea.kind != eb.kind || ea.cause != eb.cause ||
            ea.t != eb.t || ea.args != eb.args) {
            out->notes.push_back(
                fmt("first divergence at event %zu: A=%s B=%s", i,
                    eventBrief(ea).c_str(), eventBrief(eb).c_str()));
            break;
        }
    }
}

void
diffMetrics(const std::string &ta, const std::string &tb,
            DiffResult *out)
{
    const MetricsDoc a = parseMetrics(ta);
    const MetricsDoc b = parseMetrics(tb);
    if (!a.ok || !b.ok) {
        out->error = "metrics parse: " + (a.ok ? b.error : a.error);
        return;
    }
    out->ok = true;
    std::map<std::string, double> ma, mb;
    for (const MetricRow &r : a.rows)
        ma[r.name] = r.value;
    for (const MetricRow &r : b.rows)
        mb[r.name] = r.value;
    diffNumberMaps(ma, mb, out);
}

} // namespace

std::string
DiffResult::render() const
{
    if (!error.empty())
        return "error: " + error + "\n";
    std::string out =
        fmt("diff (%s): %zu delta(s)\n", inputKindName(kind),
            deltas.size());
    for (const Delta &d : deltas)
        out += fmt("  %-45s %.4g -> %.4g\n", d.key.c_str(), d.a, d.b);
    for (const std::string &note : notes)
        out += "  " + note + "\n";
    out += differ() ? "verdict: DIFFER\n" : "verdict: PASS\n";
    return out;
}

DiffResult
diffTexts(const std::string &a, const std::string &b)
{
    DiffResult out;
    const InputKind ka = detectInput(a);
    const InputKind kb = detectInput(b);
    if (ka != kb) {
        out.error = fmt("inputs are different kinds: %s vs %s",
                        inputKindName(ka), inputKindName(kb));
        return out;
    }
    out.kind = ka;
    switch (ka) {
      case InputKind::Journal:
        diffJournals(a, b, &out);
        break;
      case InputKind::Metrics:
        diffMetrics(a, b, &out);
        break;
      case InputKind::Samples:
      case InputKind::Unknown:
        out.error = "cannot diff inputs of kind " +
                    std::string(inputKindName(ka));
        break;
    }
    return out;
}

} // namespace xmig::report
