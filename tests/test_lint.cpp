/**
 * @file
 * xmig-sentinel linter tests: one positive and one negative fixture
 * per rule, the suppression grammar (including wrapped
 * justifications and malformed comments), the baseline round-trip,
 * and the report renderers.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "../tools/xmig_lint/lint.hpp"

using namespace xmig::lint;

namespace {

/** Rules triggered in `content` at `path`, as a sorted list. */
std::vector<std::string>
rulesIn(const std::string &path, const std::string &content)
{
    std::vector<std::string> rules;
    for (const Finding &f : lintFile(path, content))
        rules.push_back(f.rule);
    std::sort(rules.begin(), rules.end());
    return rules;
}

bool
hasRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&](const Finding &f) { return f.rule == rule; });
}

} // namespace

// ---------------------------------------------------------------------------
// no-wallclock
// ---------------------------------------------------------------------------

TEST(NoWallclock, FlagsChronoClockTypes)
{
    const std::string src = "void f() {\n"
                            "  auto t = std::chrono::steady_clock::now();\n"
                            "}\n";
    const auto rules = rulesIn("src/core/f.cpp", src);
    ASSERT_EQ(rules.size(), 1u);
    EXPECT_EQ(rules[0], "no-wallclock");
}

TEST(NoWallclock, FlagsCallPositionOnly)
{
    // `return clock();` is a call; `uint64_t clock() const;` is a
    // declaration and `tr.clock()` a member access — both fine.
    EXPECT_EQ(rulesIn("src/core/f.cpp",
                      "uint64_t g() { return clock(); }\n"),
              std::vector<std::string>{"no-wallclock"});
    EXPECT_TRUE(rulesIn("src/core/f.hpp",
                        "struct T { uint64_t clock() const; };\n")
                    .empty());
    EXPECT_TRUE(rulesIn("src/core/f.cpp",
                        "uint64_t g(Tracer &tr) { return tr.clock(); }\n")
                    .empty());
    EXPECT_TRUE(rulesIn("src/core/f.cpp",
                        "uint64_t Tracer::clock() { return c_; }\n")
                    .empty());
}

TEST(NoWallclock, FlagsRandomnessAndTimeIncludes)
{
    EXPECT_EQ(rulesIn("src/core/f.cpp",
                      "int g() { std::random_device rd; return 0; }\n"),
              std::vector<std::string>{"no-wallclock"});
    EXPECT_EQ(rulesIn("src/core/f.cpp", "#include <ctime>\n"),
              std::vector<std::string>{"no-wallclock"});
    EXPECT_TRUE(rulesIn("src/core/f.cpp", "#include <vector>\n").empty());
}

TEST(NoWallclock, ProfilingSubsystemIsExempt)
{
    const std::string src = "void f() {\n"
                            "  auto t = std::chrono::steady_clock::now();\n"
                            "}\n";
    EXPECT_TRUE(rulesIn("src/obs/prof.cpp", src).empty());
    EXPECT_TRUE(rulesIn("src/obs/prof.hpp", src).empty());
    // ...but the rest of obs/ is not.
    EXPECT_FALSE(rulesIn("src/obs/trace.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// unordered-output
// ---------------------------------------------------------------------------

namespace {

const char kUnorderedLoop[] =
    "void dump(const std::unordered_map<int, int> &table) {\n"
    "  for (const auto &[k, v] : table) {\n"
    "    use(k, v);\n"
    "  }\n"
    "}\n";

} // namespace

TEST(UnorderedOutput, FlagsRangeForInOutputTu)
{
    const std::string src = std::string(kUnorderedLoop) +
                            "void save() { std::ofstream out(\"x\"); }\n";
    EXPECT_EQ(rulesIn("src/obs/export.cpp", src),
              std::vector<std::string>{"unordered-output"});
    // Journal sites feed the JSONL and Chrome trace exports, so an
    // XMIG_JOURNAL TU writes output too.
    const std::string journaled =
        std::string(kUnorderedLoop) +
        "void note() { XMIG_JOURNAL(journal_, kind, cause, 1); }\n";
    EXPECT_EQ(rulesIn("src/sim/scrub.cpp", journaled),
              std::vector<std::string>{"unordered-output"});
}

TEST(UnorderedOutput, SilentWithoutOutputMarkers)
{
    // Same loop, but the TU never writes CSV/JSONL/trace output.
    EXPECT_TRUE(rulesIn("src/obs/export.cpp", kUnorderedLoop).empty());
}

TEST(UnorderedOutput, OrderedContainersAreFine)
{
    const std::string src =
        "void dump(const std::map<int, int> &table) {\n"
        "  std::ofstream out(\"x\");\n"
        "  for (const auto &[k, v] : table) use(k, v);\n"
        "}\n";
    EXPECT_TRUE(rulesIn("src/obs/export.cpp", src).empty());
}

TEST(UnorderedOutput, MemberDeclaredInHeaderIteratedInCpp)
{
    // The two-pass design: the member's unordered type is only
    // visible in the header, the loop and the output marker only in
    // the .cpp.
    const std::string hpp =
        "struct Registry { std::unordered_map<int, int> table_; };\n";
    const std::string cpp =
        "void Registry::dump() {\n"
        "  std::ofstream out(\"x\");\n"
        "  for (auto it = table_.begin(); it != table_.end(); ++it)\n"
        "    use(*it);\n"
        "}\n";
    const auto findings = lintFiles(
        {{"src/obs/registry.hpp", hpp}, {"src/obs/registry.cpp", cpp}});
    ASSERT_TRUE(hasRule(findings, "unordered-output"));
    EXPECT_EQ(findings[0].file, "src/obs/registry.cpp");
}

// ---------------------------------------------------------------------------
// pointer-order
// ---------------------------------------------------------------------------

TEST(PointerOrder, FlagsPointerKeyedContainersAndCasts)
{
    EXPECT_EQ(rulesIn("src/core/f.cpp", "std::map<Node *, int> idx;\n"),
              std::vector<std::string>{"pointer-order"});
    EXPECT_EQ(rulesIn("src/core/f.cpp",
                      "size_t h = std::hash<Node *>{}(n);\n"),
              std::vector<std::string>{"pointer-order"});
    EXPECT_EQ(rulesIn("src/core/f.cpp",
                      "auto v = reinterpret_cast<uintptr_t>(p);\n"),
              std::vector<std::string>{"pointer-order"});
}

TEST(PointerOrder, ValueKeysAreFine)
{
    EXPECT_TRUE(
        rulesIn("src/core/f.cpp", "std::map<uint64_t, int> idx;\n")
            .empty());
    EXPECT_TRUE(
        rulesIn("src/core/f.cpp", "std::set<std::string> names;\n")
            .empty());
}

// ---------------------------------------------------------------------------
// naked-mutex
// ---------------------------------------------------------------------------

TEST(NakedMutex, FlagsUnannotatedMutexMember)
{
    const std::string src = "class Pool {\n"
                            "  std::mutex mutex_;\n"
                            "  int jobs_ = 0;\n"
                            "};\n";
    EXPECT_EQ(rulesIn("src/sim/pool.hpp", src),
              std::vector<std::string>{"naked-mutex"});
}

TEST(NakedMutex, CapabilityAnnotationSatisfiesTheRule)
{
    const std::string src = "class Pool {\n"
                            "  std::mutex mutex_;\n"
                            "  int jobs_ XMIG_GUARDED_BY(mutex_) = 0;\n"
                            "};\n";
    EXPECT_TRUE(rulesIn("src/sim/pool.hpp", src).empty());
}

TEST(NakedMutex, LockGuardTemplateArgumentIsNotADeclaration)
{
    EXPECT_TRUE(rulesIn("src/sim/pool.cpp",
                        "void f(std::mutex &m) {\n"
                        "  std::lock_guard<std::mutex> lock(m);\n"
                        "}\n")
                    .empty());
}

// ---------------------------------------------------------------------------
// contract-coverage
// ---------------------------------------------------------------------------

namespace {

std::string
longMethod(const std::string &qualifier, const std::string &firstStmt)
{
    return "void\n"
           "Widget::update(int v)" + qualifier + "\n"
           "{\n"
           "    " + firstStmt + "\n"
           "    a_ = v;\n"
           "    b_ = v + 1;\n"
           "    c_ = v + 2;\n"
           "    d_ = v + 3;\n"
           "    e_ = v + 4;\n"
           "    f_ = v + 5;\n"
           "}\n";
}

} // namespace

TEST(ContractCoverage, FlagsNonTrivialMutatorWithoutContract)
{
    const std::string src = longMethod("", "g_ = v;");
    EXPECT_EQ(rulesIn("src/core/widget.cpp", src),
              std::vector<std::string>{"contract-coverage"});
    // Same file outside the scoped trees: not this rule's business.
    EXPECT_TRUE(rulesIn("src/obs/widget.cpp", src).empty());
    EXPECT_TRUE(rulesIn("src/core/widget.hpp", src).empty());
}

TEST(ContractCoverage, ContractSitesSatisfyTheRule)
{
    EXPECT_TRUE(rulesIn("src/core/widget.cpp",
                        longMethod("", "XMIG_AUDIT(v >= 0, \"v\");"))
                    .empty());
    // Calls into audit helpers carry the contract for their caller.
    EXPECT_TRUE(rulesIn("src/core/widget.cpp",
                        longMethod("", "auditConsistency();"))
                    .empty());
}

TEST(ContractCoverage, ConstAndTrivialMethodsAreExempt)
{
    EXPECT_TRUE(rulesIn("src/core/widget.cpp",
                        longMethod(" const", "g_ = v;"))
                    .empty());
    EXPECT_TRUE(rulesIn("src/core/widget.cpp",
                        "void Widget::set(int v) { a_ = v; }\n")
                    .empty());
}

// ---------------------------------------------------------------------------
// journal-in-hot-loop
// ---------------------------------------------------------------------------

TEST(JournalInHotLoop, FlagsDirectJournalCalls)
{
    EXPECT_EQ(rulesIn("src/core/engine.cpp",
                      "void f() { journal_->record(k, c, 1); }\n"),
              std::vector<std::string>{"journal-in-hot-loop"});
    EXPECT_EQ(rulesIn("src/multicore/machine.cpp",
                      "void f() { journal.setClock(refs); }\n"),
              std::vector<std::string>{"journal-in-hot-loop"});
    EXPECT_EQ(rulesIn("src/fault/watchdog.cpp",
                      "void f() { theJournal->dumpNow(\"x\"); }\n"),
              std::vector<std::string>{"journal-in-hot-loop"});
}

TEST(JournalInHotLoop, MacroUseAndObsSubsystemAreExempt)
{
    // The macro family is the blessed path: its raw token stream
    // never spells `<journal ident> -> record (`.
    EXPECT_TRUE(rulesIn("src/core/engine.cpp",
                        "void f() { XMIG_JOURNAL(journal_, k, c, 1); "
                        "XMIG_JOURNAL_CLOCK(journal_, refs); }\n")
                    .empty());
    // The journal's own home may call itself.
    EXPECT_TRUE(rulesIn("src/obs/journal.cpp",
                        "void g() { journal_->record(k, c); }\n")
                    .empty());
}

TEST(JournalInHotLoop, OnlyGatedMethodsAreBanned)
{
    // Lifecycle calls (export, arming) are not event emission.
    EXPECT_TRUE(rulesIn("src/sim/observe.cpp",
                        "void f() { journal_->writeJsonl(path); "
                        "journal_->setDumpPath(p); }\n")
                    .empty());
    // record() on a non-journal receiver is fine.
    EXPECT_TRUE(rulesIn("src/core/engine.cpp",
                        "void f() { sampler_->record(v); }\n")
                    .empty());
}

// ---------------------------------------------------------------------------
// alloc-in-hot-loop
// ---------------------------------------------------------------------------

TEST(AllocInHotLoop, FlagsHeapAllocationInBatchBodies)
{
    EXPECT_EQ(rulesIn("src/multicore/machine.cpp",
                      "void accessBatch(const MemRef *r, size_t n) {\n"
                      "    buf_.push_back(r[0]);\n"
                      "}\n"),
              std::vector<std::string>{"alloc-in-hot-loop"});
    EXPECT_EQ(rulesIn("src/core/engine.cpp",
                      "void referenceBatch(const uint64_t *l, size_t "
                      "n) {\n"
                      "    auto p = std::make_unique<int>(4);\n"
                      "}\n"),
              std::vector<std::string>{"alloc-in-hot-loop"});
    EXPECT_EQ(rulesIn("src/cache/l1_filter.cpp",
                      "size_t filterBatch(const MemRef *r, size_t n) "
                      "{\n"
                      "    int *x = new int[n];\n"
                      "    return 0;\n"
                      "}\n"),
              std::vector<std::string>{"alloc-in-hot-loop"});
}

TEST(AllocInHotLoop, FlagsVirtualSeamAndScalarReentry)
{
    // Per-reference dispatch through the OeStore interface...
    EXPECT_EQ(rulesIn("src/core/engine.cpp",
                      "void referenceBatch(const uint64_t *l, size_t "
                      "n) {\n"
                      "    for (size_t i = 0; i < n; ++i)\n"
                      "        sum += store_.lookup(l[i], d);\n"
                      "}\n"),
              std::vector<std::string>{"alloc-in-hot-loop"});
    // ...and re-entry into the scalar per-reference entry point.
    EXPECT_EQ(rulesIn("src/multicore/machine.cpp",
                      "void accessBatch(const MemRef *r, size_t n) {\n"
                      "    for (size_t i = 0; i < n; ++i)\n"
                      "        access(r[i]);\n"
                      "}\n"),
              std::vector<std::string>{"alloc-in-hot-loop"});
}

TEST(AllocInHotLoop, FastEntryPointsAndNonBatchCodeAreFine)
{
    // Devirtualized *Fast calls are the blessed batched path.
    EXPECT_TRUE(rulesIn("src/core/engine.cpp",
                        "void referenceBatch(const uint64_t *l, "
                        "size_t n) {\n"
                        "    for (size_t i = 0; i < n; ++i)\n"
                        "        sum += soaStore_->lookupFast(l[i], "
                        "d);\n"
                        "}\n")
                    .empty());
    // Only *Batch bodies are hot; the scalar path may allocate.
    EXPECT_TRUE(rulesIn("src/core/engine.cpp",
                        "void warmup() { trace_.push_back(1); }\n")
                    .empty());
    // A *call* to a Batch function is not a definition.
    EXPECT_TRUE(rulesIn("src/sim/quadcore.cpp",
                        "void f() { m.accessBatch(buf, n); }\n")
                    .empty());
}

TEST(AllocInHotLoop, ColdFallbackArmCanBeSuppressed)
{
    const std::string src =
        "void accessBatch(const MemRef *r, size_t n) {\n"
        "    for (size_t i = 0; i < n; ++i) {\n"
        "        // xmig-lint: allow(alloc-in-hot-loop) -- exact\n"
        "        // fallback, cold path.\n"
        "        access(r[i]);\n"
        "    }\n"
        "}\n";
    EXPECT_TRUE(rulesIn("src/multicore/machine.cpp", src).empty());
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

TEST(Suppression, AllowOnPrecedingLineSilencesTheFinding)
{
    const std::string src =
        "// xmig-lint: allow(no-wallclock) -- watchdog, host-only\n"
        "uint64_t g() { return clock(); }\n";
    EXPECT_TRUE(rulesIn("src/core/f.cpp", src).empty());
}

TEST(Suppression, WrappedJustificationStillReachesTheCode)
{
    // The justification spills onto a second comment line; the
    // suppression must still reach the first code line after the run.
    const std::string src =
        "// xmig-lint: allow(no-wallclock) -- watchdog oracle:\n"
        "// host time bounds the harness, never a sim result.\n"
        "uint64_t g() { return clock(); }\n";
    EXPECT_TRUE(rulesIn("src/core/f.cpp", src).empty());
}

TEST(Suppression, DoesNotLeakPastItsSite)
{
    const std::string src =
        "// xmig-lint: allow(no-wallclock) -- first site only\n"
        "uint64_t g() { return clock(); }\n"
        "\n"
        "uint64_t h() { return clock(); }\n";
    const auto findings = lintFile("src/core/f.cpp", src);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 4u);
}

TEST(Suppression, OnlyNamedRulesAreSilenced)
{
    const std::string src =
        "// xmig-lint: allow(pointer-order) -- wrong rule\n"
        "uint64_t g() { return clock(); }\n";
    EXPECT_EQ(rulesIn("src/core/f.cpp", src),
              std::vector<std::string>{"no-wallclock"});
}

TEST(Suppression, MalformedCommentsAreFindings)
{
    EXPECT_EQ(rulesIn("src/core/f.cpp",
                      "// xmig-lint: allow(no-wallclock)\n"
                      "int x = 0;\n"),
              std::vector<std::string>{"bad-suppression"});
    EXPECT_EQ(rulesIn("src/core/f.cpp",
                      "// xmig-lint: allow(no-such-rule) -- why\n"
                      "int x = 0;\n"),
              std::vector<std::string>{"bad-suppression"});
    EXPECT_EQ(rulesIn("src/core/f.cpp",
                      "// xmig-lint: see the docs\n"
                      "int x = 0;\n"),
              std::vector<std::string>{"bad-suppression"});
}

// ---------------------------------------------------------------------------
// Baseline round-trip
// ---------------------------------------------------------------------------

TEST(Baseline, RoundTripAbsolvesExactlyTheRecordedFindings)
{
    const std::string src = "uint64_t g() { return clock(); }\n"
                            "std::map<Node *, int> idx;\n";
    const auto findings = lintFile("src/core/f.cpp", src);
    ASSERT_EQ(findings.size(), 2u);

    const std::string doc = renderBaseline(findings);
    const auto baseline = parseBaseline(doc);
    EXPECT_EQ(baseline.size(), 2u);

    auto [fresh, grandfathered] =
        partitionAgainstBaseline(findings, baseline);
    EXPECT_TRUE(fresh.empty());
    EXPECT_EQ(grandfathered.size(), 2u);
}

TEST(Baseline, NewFindingsSurviveThePartition)
{
    const auto oldFindings =
        lintFile("src/core/f.cpp", "uint64_t g() { return clock(); }\n");
    const auto baseline = parseBaseline(renderBaseline(oldFindings));

    const auto now = lintFile("src/core/f.cpp",
                              "uint64_t g() { return clock(); }\n"
                              "std::map<Node *, int> idx;\n");
    auto [fresh, grandfathered] = partitionAgainstBaseline(now, baseline);
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_EQ(fresh[0].rule, "pointer-order");
    EXPECT_EQ(grandfathered.size(), 1u);
}

TEST(Baseline, KeysAreLineNumberInsensitive)
{
    const auto before =
        lintFile("src/core/f.cpp", "uint64_t g() { return clock(); }\n");
    const auto baseline = parseBaseline(renderBaseline(before));
    // The same source line drifts 3 lines down; the key still holds.
    const auto after = lintFile("src/core/f.cpp",
                                "\n\n\n"
                                "uint64_t g() { return clock(); }\n");
    auto [fresh, grandfathered] =
        partitionAgainstBaseline(after, baseline);
    EXPECT_TRUE(fresh.empty());
    EXPECT_EQ(grandfathered.size(), 1u);
}

TEST(Baseline, EachEntryAbsolvesAtMostOneFinding)
{
    const auto one =
        lintFile("src/core/f.cpp", "uint64_t g() { return clock(); }\n");
    const auto baseline = parseBaseline(renderBaseline(one));
    // Two identical lines now produce two identical keys; the single
    // baseline entry must absolve only one of them.
    const auto two = lintFile("src/core/f.cpp",
                              "uint64_t g() { return clock(); }\n"
                              "uint64_t g() { return clock(); }\n");
    auto [fresh, grandfathered] = partitionAgainstBaseline(two, baseline);
    EXPECT_EQ(fresh.size(), 1u);
    EXPECT_EQ(grandfathered.size(), 1u);
}

// ---------------------------------------------------------------------------
// Renderers and compile_commands
// ---------------------------------------------------------------------------

TEST(Render, TextJsonAndSarifNameTheFinding)
{
    const auto findings =
        lintFile("src/core/f.cpp", "uint64_t g() { return clock(); }\n");
    ASSERT_EQ(findings.size(), 1u);

    const std::string text = renderText(findings);
    EXPECT_NE(text.find("src/core/f.cpp:1: no-wallclock:"),
              std::string::npos);

    const std::string json = renderJson(findings);
    EXPECT_NE(json.find("\"rule\""), std::string::npos);
    EXPECT_NE(json.find("no-wallclock"), std::string::npos);

    const std::string sarif = renderSarif(findings);
    EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("no-wallclock"), std::string::npos);
    EXPECT_NE(sarif.find("src/core/f.cpp"), std::string::npos);
}

TEST(CompileCommands, ExtractsFileEntries)
{
    const std::string doc =
        "[\n"
        "  {\"directory\": \"/b\", \"command\": \"c++ -c a.cpp\",\n"
        "   \"file\": \"/repo/src/a.cpp\"},\n"
        "  {\"directory\": \"/b\", \"command\": \"c++ -c b.cpp\",\n"
        "   \"file\": \"/repo/src/b.cpp\"}\n"
        "]\n";
    const auto files = filesFromCompileCommands(doc);
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0], "/repo/src/a.cpp");
    EXPECT_EQ(files[1], "/repo/src/b.cpp");
}

TEST(Rules, CatalogueIsClosed)
{
    for (const std::string &r : allRules())
        EXPECT_TRUE(knownRule(r));
    EXPECT_FALSE(knownRule("no-such-rule"));
}
