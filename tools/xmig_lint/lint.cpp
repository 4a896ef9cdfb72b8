#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <map>
#include <unordered_set>

namespace xmig::lint {

namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

/** Lexical class of a token. The linter needs identifiers and a few
 *  multi-char punctuators (`::`, `->`); everything else is single-
 *  char punctuation. */
enum class TokKind : uint8_t
{
    Ident,
    Number,
    String,
    Punct,
};

struct Tok
{
    TokKind kind;
    std::string text;
    unsigned line;
};

/** A // or block comment, for suppression parsing. */
struct Comment
{
    unsigned line; ///< line the comment starts on
    std::string text;
};

/** One preprocessor directive (continuations folded). */
struct Directive
{
    unsigned line;
    std::string text;
};

struct LexedFile
{
    std::vector<Tok> toks;
    std::vector<Comment> comments;
    std::vector<Directive> directives;
};

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Tokenize C++ source: skips whitespace and comments (capturing the
 * comments), folds preprocessor lines into directives, understands
 * string/char literals including raw strings, and emits `::` / `->`
 * as single punctuator tokens.
 */
LexedFile
lex(const std::string &src)
{
    LexedFile out;
    unsigned line = 1;
    size_t i = 0;
    const size_t n = src.size();
    bool atLineStart = true;

    auto peek = [&](size_t k) -> char {
        return i + k < n ? src[i + k] : '\0';
    };

    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            ++line;
            ++i;
            atLineStart = true;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '#' && atLineStart) {
            // Preprocessor line; fold backslash continuations.
            const unsigned startLine = line;
            std::string text;
            while (i < n && src[i] != '\n') {
                if (src[i] == '\\' && peek(1) == '\n') {
                    i += 2;
                    ++line;
                    text += ' ';
                    continue;
                }
                text += src[i++];
            }
            out.directives.push_back({startLine, text});
            continue;
        }
        atLineStart = false;
        if (c == '/' && peek(1) == '/') {
            const unsigned startLine = line;
            std::string text;
            i += 2;
            while (i < n && src[i] != '\n')
                text += src[i++];
            out.comments.push_back({startLine, text});
            continue;
        }
        if (c == '/' && peek(1) == '*') {
            const unsigned startLine = line;
            std::string text;
            i += 2;
            while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
                if (src[i] == '\n')
                    ++line;
                text += src[i++];
            }
            i = std::min(i + 2, n);
            out.comments.push_back({startLine, text});
            continue;
        }
        if (identStart(c)) {
            const size_t start = i;
            while (i < n && identChar(src[i]))
                ++i;
            std::string word = src.substr(start, i - start);
            // Raw string literal: R"delim( ... )delim"
            if (i < n && src[i] == '"' &&
                (word == "R" || word == "LR" || word == "uR" ||
                 word == "u8R" || word == "UR")) {
                ++i; // consume the quote
                std::string delim;
                while (i < n && src[i] != '(')
                    delim += src[i++];
                ++i; // consume '('
                const std::string close = ")" + delim + "\"";
                const size_t end = src.find(close, i);
                const size_t stop = end == std::string::npos
                                        ? n
                                        : end + close.size();
                for (; i < stop; ++i) {
                    if (src[i] == '\n')
                        ++line;
                }
                out.toks.push_back({TokKind::String, "<raw>", line});
                continue;
            }
            out.toks.push_back({TokKind::Ident, std::move(word), line});
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            const size_t start = i;
            while (i < n && (identChar(src[i]) || src[i] == '.' ||
                             ((src[i] == '+' || src[i] == '-') &&
                              (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                               src[i - 1] == 'p' || src[i - 1] == 'P'))))
                ++i;
            out.toks.push_back(
                {TokKind::Number, src.substr(start, i - start), line});
            continue;
        }
        if (c == '"' || c == '\'') {
            const char quote = c;
            ++i;
            while (i < n && src[i] != quote) {
                if (src[i] == '\\' && i + 1 < n)
                    ++i;
                if (src[i] == '\n')
                    ++line;
                ++i;
            }
            ++i; // closing quote
            out.toks.push_back({TokKind::String, "<str>", line});
            continue;
        }
        if (c == ':' && peek(1) == ':') {
            out.toks.push_back({TokKind::Punct, "::", line});
            i += 2;
            continue;
        }
        if (c == '-' && peek(1) == '>') {
            out.toks.push_back({TokKind::Punct, "->", line});
            i += 2;
            continue;
        }
        out.toks.push_back({TokKind::Punct, std::string(1, c), line});
        ++i;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Shared scanning helpers
// ---------------------------------------------------------------------------

bool
isIdent(const Tok &t, const char *text)
{
    return t.kind == TokKind::Ident && t.text == text;
}

/**
 * With toks[i] == "<", return the index one past the matching ">".
 * `>>` is two tokens, so nested template argument lists balance.
 * Returns i + 1 (no progress into the tokens) if unbalanced.
 */
size_t
skipAngles(const std::vector<Tok> &toks, size_t i)
{
    int depth = 0;
    for (size_t j = i; j < toks.size(); ++j) {
        if (toks[j].kind != TokKind::Punct)
            continue;
        if (toks[j].text == "<") {
            ++depth;
        } else if (toks[j].text == ">") {
            if (--depth == 0)
                return j + 1;
        } else if (toks[j].text == ";" || toks[j].text == "{") {
            break; // not a template argument list after all
        }
    }
    return i + 1;
}

/** With toks[i] == open, return the index of the matching closer. */
size_t
findMatch(const std::vector<Tok> &toks, size_t i, const char *open,
          const char *close)
{
    int depth = 0;
    for (size_t j = i; j < toks.size(); ++j) {
        if (toks[j].kind != TokKind::Punct)
            continue;
        if (toks[j].text == open)
            ++depth;
        else if (toks[j].text == close && --depth == 0)
            return j;
    }
    return toks.size();
}

std::string
trimmed(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r");
    size_t e = s.find_last_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    return s.substr(b, e - b + 1);
}

/** 1-based source line text, trimmed (for baseline keys). */
std::string
sourceLine(const std::string &content, unsigned line)
{
    size_t pos = 0;
    for (unsigned l = 1; l < line; ++l) {
        pos = content.find('\n', pos);
        if (pos == std::string::npos)
            return "";
        ++pos;
    }
    size_t end = content.find('\n', pos);
    if (end == std::string::npos)
        end = content.size();
    return trimmed(content.substr(pos, end - pos));
}

// ---------------------------------------------------------------------------
// Suppressions:  // xmig-lint: allow(rule[, rule]) -- justification
// ---------------------------------------------------------------------------

struct Suppressions
{
    /** line -> rules allowed on that line and the next. */
    std::map<unsigned, std::set<std::string>> allow;
    std::vector<Finding> malformed; ///< bad-suppression findings
};

Suppressions
parseSuppressions(const std::string &path,
                  const std::vector<Comment> &comments,
                  const std::string &content)
{
    Suppressions out;
    // A justification may wrap onto following comment lines; the
    // suppression then anchors on the *last* line of the comment run,
    // so it still reaches the first code line after it.
    std::set<unsigned> commentLines;
    for (const Comment &c : comments)
        commentLines.insert(c.line);
    for (const Comment &c : comments) {
        const size_t tag = c.text.find("xmig-lint:");
        if (tag == std::string::npos)
            continue;
        auto bad = [&](const std::string &why) {
            out.malformed.push_back({path, c.line, "bad-suppression",
                                     why, sourceLine(content, c.line)});
        };
        const size_t open = c.text.find("allow(", tag);
        if (open == std::string::npos) {
            bad("xmig-lint comment without allow(rule-id, ...)");
            continue;
        }
        const size_t close = c.text.find(')', open);
        if (close == std::string::npos) {
            bad("unterminated allow( list");
            continue;
        }
        // Comma-separated rule ids.
        std::set<std::string> rules;
        std::string list =
            c.text.substr(open + 6, close - open - 6) + ",";
        bool ok = true;
        std::string cur;
        for (char ch : list) {
            if (ch == ',') {
                const std::string rule = trimmed(cur);
                cur.clear();
                if (rule.empty())
                    continue;
                if (!knownRule(rule)) {
                    bad("unknown rule '" + rule + "' in allow()");
                    ok = false;
                    break;
                }
                rules.insert(rule);
            } else {
                cur += ch;
            }
        }
        if (!ok)
            continue;
        if (rules.empty()) {
            bad("empty allow() list");
            continue;
        }
        // The justification is mandatory: "-- why this is safe".
        const size_t dash = c.text.find("--", close);
        if (dash == std::string::npos ||
            trimmed(c.text.substr(dash + 2)).empty()) {
            bad("suppression lacks a '-- justification'");
            continue;
        }
        unsigned anchor = c.line;
        while (commentLines.count(anchor + 1))
            ++anchor;
        out.allow[c.line].insert(rules.begin(), rules.end());
        if (anchor != c.line)
            out.allow[anchor].insert(rules.begin(), rules.end());
    }
    return out;
}

bool
suppressed(const Suppressions &sup, unsigned line,
           const std::string &rule)
{
    for (unsigned l : {line, line > 0 ? line - 1 : 0}) {
        auto it = sup.allow.find(l);
        if (it != sup.allow.end() && it->second.count(rule))
            return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// Rule: no-wallclock
// ---------------------------------------------------------------------------

/** Identifiers banned wherever they appear (clock/entropy types). */
const std::unordered_set<std::string> kBannedTypeIdents = {
    "system_clock",
    "high_resolution_clock",
    "steady_clock",
    "random_device",
};

/** Identifiers banned in call position. */
const std::unordered_set<std::string> kBannedCallIdents = {
    "time",        "clock",     "rand",      "srand",
    "gettimeofday", "clock_gettime", "timespec_get",
    "localtime",   "gmtime",    "mktime",    "ctime",
    "asctime",     "difftime",
};

/** Headers whose inclusion implies wall-clock / ambient entropy. */
const std::unordered_set<std::string> kBannedIncludes = {
    "ctime",
    "time.h",
    "sys/time.h",
    "random",
};

/** Keywords after which an identifier is in call, not declaration,
 *  position (`return clock()` must still be flagged). */
const std::unordered_set<std::string> kExprKeywords = {
    "return", "co_return", "co_yield", "throw", "case", "else",
    "do",     "goto",      "not",      "and",   "or",
};

bool
wallclockExempt(const std::string &path)
{
    // The profiling subsystem is the one sanctioned wall-clock user:
    // XMIG_PROF_SCOPE exists to measure host time, and its output is
    // advisory, never part of a determinism-checked artifact.
    return path.find("src/obs/prof.") != std::string::npos;
}

void
ruleNoWallclock(const std::string &path, const LexedFile &lexed,
                const std::string &content,
                std::vector<Finding> &findings)
{
    if (wallclockExempt(path))
        return;
    for (const Directive &d : lexed.directives) {
        if (d.text.find("include") == std::string::npos)
            continue;
        for (const std::string &hdr : kBannedIncludes) {
            if (d.text.find("<" + hdr + ">") != std::string::npos ||
                d.text.find("\"" + hdr + "\"") != std::string::npos) {
                findings.push_back(
                    {path, d.line, "no-wallclock",
                     "#include <" + hdr +
                         "> pulls wall-clock/entropy primitives into "
                         "a simulation TU; simulated time and xmig::Rng "
                         "are the only sanctioned sources",
                     sourceLine(content, d.line)});
            }
        }
    }
    const auto &toks = lexed.toks;
    for (size_t i = 0; i < toks.size(); ++i) {
        const Tok &t = toks[i];
        if (t.kind != TokKind::Ident)
            continue;
        if (kBannedTypeIdents.count(t.text)) {
            findings.push_back(
                {path, t.line, "no-wallclock",
                 "'" + t.text +
                     "' is a wall-clock/entropy source; a replayable "
                     "sim path must use simulated time or a seeded "
                     "xmig::Rng (wall clock is allowed only in "
                     "src/obs/prof.*)",
                 sourceLine(content, t.line)});
            continue;
        }
        if (!kBannedCallIdents.count(t.text))
            continue;
        if (i + 1 >= toks.size() || toks[i + 1].kind != TokKind::Punct ||
            toks[i + 1].text != "(")
            continue;
        // Only call position: skip member access (tr.clock()),
        // declarations (uint64_t clock() const) and qualified names
        // other than std:: (Tracer::clock definitions).
        if (i > 0) {
            const Tok &p = toks[i - 1];
            if (p.kind == TokKind::Punct &&
                (p.text == "." || p.text == "->"))
                continue;
            if (p.kind == TokKind::Ident && !kExprKeywords.count(p.text))
                continue;
            if (p.kind == TokKind::Punct && p.text == "::") {
                const bool stdQualified =
                    i >= 2 && isIdent(toks[i - 2], "std");
                const bool globalQualified =
                    i < 2 || toks[i - 2].kind != TokKind::Ident;
                if (!stdQualified && !globalQualified)
                    continue;
            }
        }
        findings.push_back(
            {path, t.line, "no-wallclock",
             "call to '" + t.text +
                 "' injects wall-clock/ambient state into a sim "
                 "path; use simulated time or a seeded xmig::Rng",
             sourceLine(content, t.line)});
    }
}

// ---------------------------------------------------------------------------
// Rule: unordered-output
// ---------------------------------------------------------------------------

/** Tokens that mark a TU as producing CSV/JSONL/trace output.
 *  XMIG_JOURNAL sites feed the journal's JSONL and Chrome trace. */
const std::unordered_set<std::string> kOutputMarkers = {
    "fopen", "fwrite",  "fprintf", "printf",
    "fputs", "puts",    "ofstream", "cout",
    "XMIG_JOURNAL",
};

/**
 * Collect names declared with std::unordered_{map,set} type in this
 * file (members, locals and parameters alike).
 */
void
collectUnorderedNames(const LexedFile &lexed,
                      std::unordered_set<std::string> &names)
{
    const auto &toks = lexed.toks;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (!isIdent(toks[i], "unordered_map") &&
            !isIdent(toks[i], "unordered_set"))
            continue;
        if (i + 1 >= toks.size() || toks[i + 1].text != "<")
            continue;
        size_t j = skipAngles(toks, i + 1);
        // Declarator: [const] [&*]* name, unless it is a function
        // declaration (name immediately followed by '(').
        while (j < toks.size() &&
               (toks[j].text == "&" || toks[j].text == "*" ||
                isIdent(toks[j], "const")))
            ++j;
        if (j + 1 < toks.size() && toks[j].kind == TokKind::Ident &&
            toks[j + 1].text != "(")
            names.insert(toks[j].text);
    }
}

bool
writesOutput(const LexedFile &lexed)
{
    for (const Tok &t : lexed.toks) {
        if (t.kind == TokKind::Ident && kOutputMarkers.count(t.text))
            return true;
    }
    return false;
}

void
ruleUnorderedOutput(const std::string &path, const LexedFile &lexed,
                    const std::string &content,
                    const std::unordered_set<std::string> &unordered,
                    std::vector<Finding> &findings)
{
    if (!writesOutput(lexed))
        return;
    const auto &toks = lexed.toks;
    auto flag = [&](unsigned line, const std::string &what) {
        findings.push_back(
            {path, line, "unordered-output",
             what + " iterates a std::unordered_{map,set} in a TU "
                    "that writes CSV/JSONL/trace output; iteration "
                    "order is implementation-defined — sort keys at "
                    "the export boundary, or suppress with a "
                    "justification if the loop is order-free",
             sourceLine(content, line)});
    };
    for (size_t i = 0; i < toks.size(); ++i) {
        // Range-for whose range expression names an unordered
        // container (or an unordered type directly).
        if (isIdent(toks[i], "for") && i + 1 < toks.size() &&
            toks[i + 1].text == "(") {
            const size_t close = findMatch(toks, i + 1, "(", ")");
            size_t colon = toks.size();
            int depth = 0;
            for (size_t j = i + 1; j < close; ++j) {
                if (toks[j].kind != TokKind::Punct)
                    continue;
                if (toks[j].text == "(")
                    ++depth;
                else if (toks[j].text == ")")
                    --depth;
                else if (depth == 1 && toks[j].text == ";")
                    break; // classic for
                else if (depth == 1 && toks[j].text == ":") {
                    colon = j;
                    break;
                }
            }
            for (size_t j = colon + 1; j < close && j < toks.size();
                 ++j) {
                if (toks[j].kind == TokKind::Ident &&
                    (unordered.count(toks[j].text) ||
                     toks[j].text == "unordered_map" ||
                     toks[j].text == "unordered_set")) {
                    flag(toks[i].line, "range-for");
                    break;
                }
            }
            continue;
        }
        // Explicit iterator loop: container.begin() / ->begin().
        if (toks[i].kind == TokKind::Ident &&
            unordered.count(toks[i].text) && i + 3 < toks.size() &&
            (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
            (isIdent(toks[i + 2], "begin") ||
             isIdent(toks[i + 2], "cbegin")) &&
            toks[i + 3].text == "(") {
            flag(toks[i].line, "iterator loop");
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: pointer-order
// ---------------------------------------------------------------------------

void
rulePointerOrder(const std::string &path, const LexedFile &lexed,
                 const std::string &content,
                 std::vector<Finding> &findings)
{
    const auto &toks = lexed.toks;
    for (size_t i = 0; i < toks.size(); ++i) {
        const Tok &t = toks[i];
        if (t.kind != TokKind::Ident)
            continue;
        if (t.text == "uintptr_t" || t.text == "intptr_t") {
            findings.push_back(
                {path, t.line, "pointer-order",
                 "'" + t.text +
                     "' converts a pointer to an orderable integer; "
                     "address-derived order varies run to run (ASLR, "
                     "allocator) and must not reach output",
                 sourceLine(content, t.line)});
            continue;
        }
        const bool container =
            t.text == "map" || t.text == "set" ||
            t.text == "unordered_map" || t.text == "unordered_set" ||
            t.text == "multimap" || t.text == "multiset" ||
            t.text == "hash";
        if (!container || i + 1 >= toks.size() ||
            toks[i + 1].text != "<")
            continue;
        // First template argument: tokens to the first ',' (or the
        // matching '>') at depth 1. Pointer-typed keys end with '*'.
        const size_t end = skipAngles(toks, i + 1);
        size_t lastArgTok = 0;
        int depth = 0;
        for (size_t j = i + 1; j + 1 < end; ++j) {
            if (toks[j].kind == TokKind::Punct) {
                if (toks[j].text == "<")
                    ++depth;
                else if (toks[j].text == ">")
                    --depth;
                else if (depth == 1 && toks[j].text == ",")
                    break;
            }
            lastArgTok = j;
        }
        if (lastArgTok != 0 && toks[lastArgTok].text == "*") {
            findings.push_back(
                {path, t.line, "pointer-order",
                 "std::" + t.text +
                     " keyed on raw pointer values: ordering/hash "
                     "follows addresses, which vary run to run — key "
                     "on a stable id instead",
                 sourceLine(content, t.line)});
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: naked-mutex
// ---------------------------------------------------------------------------

const std::unordered_set<std::string> kCapabilityMacros = {
    "XMIG_GUARDED_BY", "XMIG_PT_GUARDED_BY", "XMIG_REQUIRES",
    "XMIG_ACQUIRE",    "XMIG_RELEASE",       "XMIG_EXCLUDES",
    "XMIG_RETURN_CAPABILITY",
};

void
ruleNakedMutex(const std::string &path, const LexedFile &lexed,
               const std::string &content,
               std::vector<Finding> &findings)
{
    const auto &toks = lexed.toks;
    // Every mutex name referenced from a capability annotation.
    std::unordered_set<std::string> annotated;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident ||
            !kCapabilityMacros.count(toks[i].text) ||
            i + 1 >= toks.size() || toks[i + 1].text != "(")
            continue;
        const size_t close = findMatch(toks, i + 1, "(", ")");
        for (size_t j = i + 2; j < close; ++j) {
            if (toks[j].kind == TokKind::Ident)
                annotated.insert(toks[j].text);
        }
    }
    // std::mutex / std::shared_mutex declarations: `std :: mutex
    // name ;` (possibly with `mutable` before, initializer after).
    for (size_t i = 0; i + 3 < toks.size(); ++i) {
        if (!isIdent(toks[i], "std") || toks[i + 1].text != "::")
            continue;
        if (!isIdent(toks[i + 2], "mutex") &&
            !isIdent(toks[i + 2], "shared_mutex"))
            continue;
        const Tok &name = toks[i + 3];
        if (name.kind != TokKind::Ident)
            continue; // e.g. lock_guard<std::mutex> — next is '>'
        if (i + 4 < toks.size() && toks[i + 4].text != ";" &&
            toks[i + 4].text != "=" && toks[i + 4].text != "{")
            continue;
        if (annotated.count(name.text))
            continue;
        findings.push_back(
            {path, name.line, "naked-mutex",
             "std::" + toks[i + 2].text + " '" + name.text +
                 "' has no capability annotation in this file: name "
                 "the state it guards with XMIG_GUARDED_BY(" +
                 name.text +
                 ") (src/util/thread_annotations.hpp) so clang "
                 "-Wthread-safety can check every access",
             sourceLine(content, name.line)});
    }
}

// ---------------------------------------------------------------------------
// Rule: contract-coverage
// ---------------------------------------------------------------------------

const std::unordered_set<std::string> kContractMacros = {
    "XMIG_ASSERT",
    "XMIG_AUDIT",
    "XMIG_EXPECT",
    // A guarded panic is a contract check firing: the condition was
    // evaluated by the surrounding if.
    "XMIG_PANIC",
};

/** Bodies spanning fewer lines than this are trivial setters /
 *  forwarders; demanding a contract there is noise. */
constexpr unsigned kContractMinBodyLines = 8;

bool
contractScoped(const std::string &path)
{
    return (path.find("src/core/") != std::string::npos ||
            path.find("src/multicore/") != std::string::npos) &&
           path.size() > 4 &&
           path.compare(path.size() - 4, 4, ".cpp") == 0;
}

void
ruleContractCoverage(const std::string &path, const LexedFile &lexed,
                     const std::string &content,
                     std::vector<Finding> &findings)
{
    if (!contractScoped(path))
        return;
    const auto &toks = lexed.toks;
    for (size_t i = 0; i + 3 < toks.size(); ++i) {
        // Out-of-line definition: Class :: method ( ... ) [const] {
        if (toks[i].kind != TokKind::Ident ||
            toks[i + 1].text != "::" ||
            toks[i + 2].kind != TokKind::Ident ||
            toks[i + 3].text != "(")
            continue;
        // Qualified *calls* and nested qualifications are filtered
        // below by requiring a '{' before any statement punctuation.
        const size_t close = findMatch(toks, i + 3, "(", ")");
        if (close >= toks.size())
            continue;
        bool isConst = false;
        bool isDefinition = false;
        size_t bodyOpen = toks.size();
        for (size_t j = close + 1; j < toks.size(); ++j) {
            const Tok &t = toks[j];
            if (isIdent(t, "const")) {
                isConst = true;
                continue;
            }
            if (t.kind == TokKind::Ident || t.text == "(" ||
                t.text == ")" || t.text == "&") {
                // noexcept, override, trailing specifiers...
                continue;
            }
            if (t.text == ":") {
                // Constructor initializer list: the body is the
                // first '{' at paren depth 0 from here.
                int depth = 0;
                for (size_t k = j + 1; k < toks.size(); ++k) {
                    if (toks[k].text == "(")
                        ++depth;
                    else if (toks[k].text == ")")
                        --depth;
                    else if (toks[k].text == "{" && depth == 0) {
                        bodyOpen = k;
                        break;
                    }
                }
                isDefinition = bodyOpen < toks.size();
                break;
            }
            if (t.text == "{") {
                bodyOpen = j;
                isDefinition = true;
            }
            break;
        }
        if (!isDefinition || isConst)
            continue;
        const size_t bodyClose = findMatch(toks, bodyOpen, "{", "}");
        if (bodyClose >= toks.size())
            continue;
        const unsigned bodyLines =
            toks[bodyClose].line - toks[bodyOpen].line + 1;
        if (bodyLines < kContractMinBodyLines) {
            i = bodyOpen; // skip the trivial body
            continue;
        }
        bool hasContract = false;
        for (size_t j = bodyOpen; j <= bodyClose && !hasContract; ++j) {
            if (toks[j].kind != TokKind::Ident)
                continue;
            if (kContractMacros.count(toks[j].text)) {
                hasContract = true;
            } else if (toks[j].text.compare(0, 5, "audit") == 0 &&
                       j + 1 <= bodyClose && toks[j + 1].text == "(") {
                // Calls into audit helpers (auditConsistency, ...)
                // carry the contract for their caller.
                hasContract = true;
            }
        }
        if (!hasContract) {
            findings.push_back(
                {path, toks[i].line, "contract-coverage",
                 "mutating method " + toks[i].text +
                     "::" + toks[i + 2].text + " (" +
                     std::to_string(bodyLines) +
                     " lines) has no XMIG_ASSERT/XMIG_AUDIT/"
                     "XMIG_EXPECT site; state what it preserves, or "
                     "suppress with a justification",
                 sourceLine(content, toks[i].line)});
        }
        i = bodyOpen; // resume after the header (nested defs: none)
    }
}

// ---------------------------------------------------------------------------
// Rule: journal-in-hot-loop
// ---------------------------------------------------------------------------

/** Journal methods whose direct use bypasses the macro discipline. */
const std::unordered_set<std::string> kJournalGatedMethods = {
    "record",
    "setClock",
    "dumpNow",
};

bool
identMentionsJournal(const std::string &text)
{
    std::string lower = text;
    for (char &c : lower)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return lower.find("journal") != std::string::npos;
}

void
ruleJournalInHotLoop(const std::string &path, const LexedFile &lexed,
                     const std::string &content,
                     std::vector<Finding> &findings)
{
    // src/obs/ is the journal's home: the Journal class and the
    // XMIG_JOURNAL macro family legitimately spell out these calls.
    if (path.find("src/") == std::string::npos ||
        path.find("src/obs/") != std::string::npos)
        return;
    const auto &toks = lexed.toks;
    for (size_t i = 0; i + 3 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident ||
            !identMentionsJournal(toks[i].text))
            continue;
        if (toks[i + 1].kind != TokKind::Punct ||
            (toks[i + 1].text != "." && toks[i + 1].text != "->"))
            continue;
        if (toks[i + 2].kind != TokKind::Ident ||
            kJournalGatedMethods.count(toks[i + 2].text) == 0)
            continue;
        if (toks[i + 3].text != "(")
            continue;
        findings.push_back(
            {path, toks[i].line, "journal-in-hot-loop",
             "direct " + toks[i].text + toks[i + 1].text +
                 toks[i + 2].text +
                 "() bypasses the journal macros: it skips their "
                 "null check and evaluates its arguments even with "
                 "no journal attached; use "
                 "XMIG_JOURNAL / XMIG_JOURNAL_CLOCK / "
                 "XMIG_JOURNAL_INCIDENT (src/obs/journal.hpp)",
             sourceLine(content, toks[i].line)});
    }
}

// ---------------------------------------------------------------------------
// Rule: alloc-in-hot-loop
// ---------------------------------------------------------------------------

/** Calls that allocate (or may reallocate) heap memory. */
const std::unordered_set<std::string> kHotAllocCalls = {
    "malloc",      "calloc",      "realloc",  "aligned_alloc",
    "strdup",      "make_unique", "make_shared",
    "push_back",   "emplace_back", "resize",  "reserve",
    "insert",      "emplace",
};

/** Member calls that are the per-reference virtual seam (the OeStore
 *  interface); batched code must reach the concrete store through its
 *  devirtualized *Fast entry points instead. */
const std::unordered_set<std::string> kScalarSeamMembers = {
    "lookup",
    "store",
};

/** Unqualified calls that re-enter the scalar per-reference path
 *  (AffinityEngine::reference, MigrationMachine::access). */
const std::unordered_set<std::string> kScalarEntryCalls = {
    "reference",
    "access",
};

/**
 * Scan the bodies of *Batch functions (accessBatch, filterBatch,
 * onRequestBatch, ...) — the xmig-bolt hot paths whose whole point is
 * to amortize per-reference overhead — for heap allocation and for
 * per-reference dispatch through a virtual seam. Each layer has one
 * reference path, so no batch body keeps a per-reference fallback
 * arm and src/ carries no suppression of this rule; a new one needs
 * the justification of why it is exact.
 */
void
ruleAllocInHotLoop(const std::string &path, const LexedFile &lexed,
                   const std::string &content,
                   std::vector<Finding> &findings)
{
    const auto &toks = lexed.toks;
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident ||
            toks[i].text.find("Batch") == std::string::npos ||
            toks[i + 1].text != "(")
            continue;
        const size_t close = findMatch(toks, i + 1, "(", ")");
        if (close >= toks.size())
            continue;
        // A definition, not a call or declaration: only specifiers
        // (const, noexcept, override, ref-qualifiers) between the
        // parameter list and the body brace. Constructor initializer
        // lists of Batch* classes are deliberately not chased — the
        // rule targets the per-reference loops, not setup code.
        size_t bodyOpen = toks.size();
        for (size_t j = close + 1; j < toks.size(); ++j) {
            const Tok &t = toks[j];
            if (t.kind == TokKind::Ident || t.text == "&" ||
                t.text == "(" || t.text == ")")
                continue;
            if (t.text == "{")
                bodyOpen = j;
            break;
        }
        if (bodyOpen >= toks.size())
            continue;
        const size_t bodyClose = findMatch(toks, bodyOpen, "{", "}");
        if (bodyClose >= toks.size())
            continue;
        const std::string fn = toks[i].text;
        auto flag = [&](unsigned line, const std::string &what) {
            findings.push_back(
                {path, line, "alloc-in-hot-loop",
                 what + " inside batched hot path " + fn +
                     "(): the *Batch loops exist to amortize "
                     "per-reference overhead, so they must be "
                     "allocation-free and devirtualized — hoist the "
                     "work out of the loop or use the concrete *Fast "
                     "entry points; a cold exact-fallback arm may be "
                     "suppressed with a justification",
                 sourceLine(content, line)});
        };
        for (size_t j = bodyOpen + 1; j < bodyClose; ++j) {
            const Tok &t = toks[j];
            if (t.kind != TokKind::Ident)
                continue;
            if (t.text == "new") {
                flag(t.line, "operator new");
                continue;
            }
            // Call position, allowing a template argument list
            // (std::make_unique<T>(...)).
            size_t paren = j + 1;
            if (paren < bodyClose && toks[paren].text == "<")
                paren = skipAngles(toks, paren);
            if (paren >= bodyClose || toks[paren].text != "(")
                continue;
            const bool member =
                j > 0 && toks[j - 1].kind == TokKind::Punct &&
                (toks[j - 1].text == "." || toks[j - 1].text == "->");
            if (kHotAllocCalls.count(t.text)) {
                flag(t.line, "heap allocation via " + t.text + "()");
            } else if (member && kScalarSeamMembers.count(t.text)) {
                flag(t.line, "per-reference virtual dispatch " +
                                 toks[j - 1].text + t.text + "()");
            } else if (!member && kScalarEntryCalls.count(t.text)) {
                flag(t.line,
                     "per-reference scalar re-entry " + t.text + "()");
            }
        }
        i = bodyClose;
    }
}

} // namespace

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

const std::vector<std::string> &
allRules()
{
    static const std::vector<std::string> rules = {
        "no-wallclock",        "unordered-output",
        "pointer-order",       "naked-mutex",
        "contract-coverage",   "journal-in-hot-loop",
        "alloc-in-hot-loop",   "bad-suppression",
    };
    return rules;
}

bool
knownRule(const std::string &rule)
{
    const auto &rules = allRules();
    return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

std::vector<Finding>
lintFiles(const std::vector<std::pair<std::string, std::string>> &files)
{
    // Pass 1: unordered container names across every file — members
    // are declared in headers but iterated in .cpp files.
    std::vector<LexedFile> lexed;
    lexed.reserve(files.size());
    std::unordered_set<std::string> unordered;
    for (const auto &[path, content] : files) {
        lexed.push_back(lex(content));
        collectUnorderedNames(lexed.back(), unordered);
    }

    // Pass 2: per-file rules, then suppression filtering.
    std::vector<Finding> findings;
    for (size_t f = 0; f < files.size(); ++f) {
        const auto &[path, content] = files[f];
        std::vector<Finding> raw;
        ruleNoWallclock(path, lexed[f], content, raw);
        ruleUnorderedOutput(path, lexed[f], content, unordered, raw);
        rulePointerOrder(path, lexed[f], content, raw);
        ruleNakedMutex(path, lexed[f], content, raw);
        ruleContractCoverage(path, lexed[f], content, raw);
        ruleJournalInHotLoop(path, lexed[f], content, raw);
        ruleAllocInHotLoop(path, lexed[f], content, raw);

        const Suppressions sup =
            parseSuppressions(path, lexed[f].comments, content);
        for (Finding &finding : raw) {
            if (!suppressed(sup, finding.line, finding.rule))
                findings.push_back(std::move(finding));
        }
        for (const Finding &m : sup.malformed)
            findings.push_back(m);
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return findings;
}

std::vector<Finding>
lintFile(const std::string &path, const std::string &content)
{
    return lintFiles({{path, content}});
}

std::string
baselineKey(const Finding &finding)
{
    return finding.rule + "|" + finding.file + "|" + finding.lineText;
}

std::multiset<std::string>
parseBaseline(const std::string &content)
{
    std::multiset<std::string> out;
    size_t pos = 0;
    while (pos <= content.size()) {
        size_t end = content.find('\n', pos);
        if (end == std::string::npos)
            end = content.size();
        const std::string line = trimmed(content.substr(pos, end - pos));
        if (!line.empty() && line[0] != '#')
            out.insert(line);
        if (end == content.size())
            break;
        pos = end + 1;
    }
    return out;
}

std::string
renderBaseline(const std::vector<Finding> &findings)
{
    std::string out =
        "# xmig_lint grandfather baseline. One `rule|file|line-text`\n"
        "# key per line; keys are content-addressed, so line-number\n"
        "# drift does not invalidate them. Shrink this file; never\n"
        "# grow it without a review (docs/analysis.md).\n";
    std::vector<std::string> keys;
    keys.reserve(findings.size());
    for (const Finding &f : findings)
        keys.push_back(baselineKey(f));
    std::sort(keys.begin(), keys.end());
    for (const std::string &k : keys)
        out += k + "\n";
    return out;
}

std::pair<std::vector<Finding>, std::vector<Finding>>
partitionAgainstBaseline(const std::vector<Finding> &findings,
                         std::multiset<std::string> baseline)
{
    std::vector<Finding> fresh;
    std::vector<Finding> grandfathered;
    for (const Finding &f : findings) {
        auto it = baseline.find(baselineKey(f));
        if (it != baseline.end()) {
            baseline.erase(it); // each entry absolves one finding
            grandfathered.push_back(f);
        } else {
            fresh.push_back(f);
        }
    }
    return {std::move(fresh), std::move(grandfathered)};
}

std::string
renderText(const std::vector<Finding> &findings)
{
    std::string out;
    for (const Finding &f : findings) {
        out += f.file + ":" + std::to_string(f.line) + ": " + f.rule +
               ": " + f.message + "\n";
    }
    return out;
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
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

} // namespace

std::string
renderJson(const std::vector<Finding> &findings)
{
    std::string out = "[\n";
    for (size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        out += "  {\"file\":\"" + jsonEscape(f.file) +
               "\",\"line\":" + std::to_string(f.line) +
               ",\"rule\":\"" + jsonEscape(f.rule) +
               "\",\"message\":\"" + jsonEscape(f.message) + "\"}";
        out += i + 1 < findings.size() ? ",\n" : "\n";
    }
    out += "]\n";
    return out;
}

std::string
renderSarif(const std::vector<Finding> &findings)
{
    std::string out =
        "{\"$schema\":"
        "\"https://json.schemastore.org/sarif-2.1.0.json\","
        "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
        "\"name\":\"xmig_lint\",\"informationUri\":"
        "\"docs/analysis.md\",\"rules\":[";
    const auto &rules = allRules();
    for (size_t i = 0; i < rules.size(); ++i) {
        if (i)
            out += ",";
        out += "{\"id\":\"" + rules[i] + "\"}";
    }
    out += "]}},\"results\":[";
    for (size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        if (i)
            out += ",";
        out += "{\"ruleId\":\"" + jsonEscape(f.rule) +
               "\",\"level\":\"error\",\"message\":{\"text\":\"" +
               jsonEscape(f.message) +
               "\"},\"locations\":[{\"physicalLocation\":{"
               "\"artifactLocation\":{\"uri\":\"" +
               jsonEscape(f.file) +
               "\"},\"region\":{\"startLine\":" +
               std::to_string(f.line) + "}}}]}";
    }
    out += "]}]}\n";
    return out;
}

std::vector<std::string>
filesFromCompileCommands(const std::string &content)
{
    std::vector<std::string> out;
    const std::string key = "\"file\"";
    size_t pos = 0;
    while ((pos = content.find(key, pos)) != std::string::npos) {
        pos += key.size();
        // Skip whitespace and the colon, then read the string value.
        while (pos < content.size() &&
               (std::isspace(static_cast<unsigned char>(content[pos])) ||
                content[pos] == ':'))
            ++pos;
        if (pos >= content.size() || content[pos] != '"')
            continue;
        ++pos;
        std::string path;
        while (pos < content.size() && content[pos] != '"') {
            if (content[pos] == '\\' && pos + 1 < content.size()) {
                ++pos; // CMake escapes backslashes on Windows
            }
            path += content[pos++];
        }
        out.push_back(std::move(path));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace xmig::lint
