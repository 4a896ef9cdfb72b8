/**
 * @file
 * Minimal JSON helpers for the observability layer.
 *
 * The exporters (metrics JSONL, Chrome trace_event files) emit JSON
 * by string concatenation — no external dependency is available in
 * this environment — so this header centralizes the two things that
 * must be exactly right: string escaping on the way out, and the one
 * parser on the way back in — a small DOM that xmig_report reads
 * journals and metrics with, and that the tests use to prove every
 * emitted byte stream is well-formed JSON before shipping it to
 * pandas / Perfetto.
 */

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace xmig::obs {

/** Escape a string for embedding between JSON double quotes. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Format a double as a JSON number: finite values print with enough
 * precision to round-trip; NaN / infinity (not representable in JSON)
 * degrade to null.
 */
inline std::string
jsonNumber(double v)
{
    if (v != v || v > 1.7e308 || v < -1.7e308)
        return "null";
    // Integral values (the common case for counters) print without a
    // fractional part so JSONL diffs stay stable.
    if (v == static_cast<double>(static_cast<int64_t>(v)) &&
        v >= -9.0e15 && v <= 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** One parsed JSON value: a small DOM, cold tool code. */
struct JValue
{
    enum class Kind { Null, Bool, Number, String, Object, Array };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<std::pair<std::string, JValue>> object;
    std::vector<JValue> array;

    /** Member `key` of an object, or null when absent. */
    const JValue *get(const std::string &key) const;

    /** Member `key` as a number; `fallback` when absent or not one. */
    double numberAt(const std::string &key, double fallback = 0.0) const;

    /** Member `key` as a string; empty when absent or not one. */
    std::string stringAt(const std::string &key) const;
};

/**
 * Parse `text` as one complete JSON value (arrays and objects nested
 * at most 64 deep, surrounding whitespace allowed) into `out`.
 * Returns false on any malformed or trailing input.
 */
bool parseJson(const std::string &text, JValue *out);

/** True if `text` parses to the end as one JSON value. */
inline bool
jsonParseOk(const std::string &text)
{
    JValue v;
    return parseJson(text, &v);
}

} // namespace xmig::obs
