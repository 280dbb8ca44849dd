/**
 * @file
 * cmpsim_analyze test suite (DESIGN.md §11): the lexer's token/
 * suppression guarantees, every checker against a seeded-bad snippet
 * and its fixed form, the suppression grammar (reason mandatory,
 * unknown ids rejected), the cmpsim.analyze.v1 JSON schema, and a
 * self-scan proving the shipped tree is clean with every suppression
 * carrying a reason.
 *
 * Snippets are embedded rather than read from fixture files so each
 * test shows exactly the code shape it legislates about.
 */

#include "tools/analyze/checker.h"
#include "tools/analyze/lexer.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace cmpsim::analyze {
namespace {

AnalysisResult
analyze(const std::vector<std::pair<std::string, std::string>> &files,
        const AnalysisContext &ctx = {})
{
    Corpus corpus;
    for (const auto &[path, text] : files)
        corpus.files.push_back(lexSource(path, text));
    return runAnalysis(corpus, ctx);
}

/** Findings of one check id, as "file:line" strings. */
std::vector<std::string>
where(const AnalysisResult &r, const std::string &check)
{
    std::vector<std::string> out;
    for (const Finding &f : r.findings) {
        if (f.check == check)
            out.push_back(f.file + ":" + std::to_string(f.line));
    }
    return out;
}

// ------------------------------------------------------------- lexer

TEST(LexerTest, CommentsAndStringsNeverYieldIdentifiers)
{
    const auto f = lexSource("src/sim/x.cc",
                             "// rand() in a comment\n"
                             "/* time( in a block */\n"
                             "const char *s = \"rand(\";\n"
                             "int keep;\n");
    for (const Token &t : f.tokens) {
        if (t.kind == TokKind::Ident) {
            EXPECT_NE(t.text, "rand");
            EXPECT_NE(t.text, "time");
        }
    }
    // The string literal survives as a String token with unquoted body.
    bool saw_string = false;
    for (const Token &t : f.tokens)
        saw_string |= t.kind == TokKind::String && t.text == "rand(";
    EXPECT_TRUE(saw_string);
}

TEST(LexerTest, TokensCarryLineNumbersThroughMultilineConstructs)
{
    const auto f = lexSource("src/sim/x.cc",
                             "/* line 1\n   line 2 */ int a;\n"
                             "R\"(raw\nstring)\" int b;\n");
    int line_a = 0, line_b = 0;
    for (const Token &t : f.tokens) {
        if (t.kind == TokKind::Ident && t.text == "a")
            line_a = t.line;
        if (t.kind == TokKind::Ident && t.text == "b")
            line_b = t.line;
    }
    EXPECT_EQ(line_a, 2);
    EXPECT_EQ(line_b, 4); // raw string spans lines 3-4
}

TEST(LexerTest, MultiCharOperatorsAreSingleTokens)
{
    const auto f = lexSource("src/sim/x.cc", "if (e == nullptr) e->x;");
    bool saw_eq_eq = false, saw_arrow = false, saw_plain_eq = false;
    for (const Token &t : f.tokens) {
        if (t.kind != TokKind::Punct)
            continue;
        saw_eq_eq |= t.text == "==";
        saw_arrow |= t.text == "->";
        saw_plain_eq |= t.text == "=";
    }
    EXPECT_TRUE(saw_eq_eq);
    EXPECT_TRUE(saw_arrow);
    EXPECT_FALSE(saw_plain_eq) << "`==` must not split into `=` `=`";
}

TEST(LexerTest, PreprocessorDirectivesAreSkipped)
{
    const auto f = lexSource("src/sim/x.cc",
                             "#include <sys/time.h>\n"
                             "#define T time(nullptr)\n"
                             "int x;\n");
    for (const Token &t : f.tokens)
        EXPECT_FALSE(t.kind == TokKind::Ident && t.text == "time");
}

TEST(LexerTest, GrammarExamplesInDocsAreNotSuppressions)
{
    const auto f = lexSource("src/sim/x.cc",
                             "// analyze-ok: <check-id> <reason>\n"
                             "// analyze-ok: ...\n"
                             "// analyze-ok: real-id a real reason\n");
    ASSERT_EQ(f.suppressions.size(), 1u);
    EXPECT_EQ(f.suppressions[0].check_id, "real-id");
    EXPECT_EQ(f.suppressions[0].reason, "a real reason");
}

// ----------------------------------------------------- nondet-source

TEST(NondetSourceTest, FiresOnBannedCallsAndTypes)
{
    const auto r = analyze(
        {{"src/sim/bad.cc",
          "void f() {\n"
          "    int a = rand();\n"
          "    std::mt19937 gen;\n"
          "    auto t = std::time(nullptr);\n"
          "}\n"}});
    EXPECT_EQ(where(r, "nondet-source").size(), 3u);
}

TEST(NondetSourceTest, QuietOnMembersUserQualifiersAndSeededRandom)
{
    const auto r = analyze(
        {{"src/sim/good.cc",
          "void f(Clock &c, Random &rng) {\n"
          "    auto t = c.time();\n"          // member, not ::time
          "    auto u = sim::time(3);\n"      // user-qualified
          "    auto v = rng.uniform(0, 8);\n" // the seeded API
          "}\n"}});
    EXPECT_TRUE(where(r, "nondet-source").empty());
}

// ----------------------------------------------------- unordered-iter

TEST(UnorderedIterTest, FiresOnRangeForAndBeginOverUnordered)
{
    const auto r = analyze(
        {{"src/cache/bad.cc",
          "std::unordered_map<int, int> table_;\n"
          "void f() {\n"
          "    for (const auto &kv : table_) { use(kv); }\n"
          "    std::for_each(table_.begin(), table_.end(), g);\n"
          "}\n"}});
    EXPECT_EQ(where(r, "unordered-iter").size(), 2u);
}

TEST(UnorderedIterTest, QuietOnSortedCopyIdiomAndReceiverPositions)
{
    const auto r = analyze(
        {{"src/cache/good.cc",
          "std::unordered_map<int, Mshr> table_;\n"
          "void f() {\n"
          "    for (int k : sortedKeys(table_)) { use(k); }\n"
          "    for (const Waiter &w : m.waiters) { use(w); }\n"
          "}\n"}});
    EXPECT_TRUE(where(r, "unordered-iter").empty());
}

TEST(UnorderedIterTest, DeclarationsOutsideSrcScopeTheNamesNotTheScan)
{
    // The container is declared in a header under src/ but iterated in
    // bench/: the invariant is scoped to src/, so bench stays quiet.
    const auto r = analyze(
        {{"src/cache/t.h", "std::unordered_map<int, int> table_;\n"},
         {"bench/b.cc",
          "void f() { for (auto &kv : table_) { use(kv); } }\n"}});
    EXPECT_TRUE(where(r, "unordered-iter").empty());
}

// ---------------------------------------------------- tagentry-stale

TEST(TagEntryTest, FiresOnUseAcrossReorderingCall)
{
    const auto r = analyze(
        {{"src/cache/bad.cc",
          "void f(Set &set) {\n"
          "    TagEntry *e = set.find(line);\n"
          "    set.touch(line);\n"
          "    e->dirty = true;\n"
          "}\n"}});
    const auto hits = where(r, "tagentry-stale");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0], "src/cache/bad.cc:4");
}

TEST(TagEntryTest, QuietOnReFindIdiom)
{
    const auto r = analyze(
        {{"src/cache/good.cc",
          "void f(Set &set) {\n"
          "    TagEntry *e = set.find(line);\n"
          "    set.touch(line);\n"
          "    e = set.find(line);\n"
          "    e->dirty = true;\n"
          "}\n"}});
    EXPECT_TRUE(where(r, "tagentry-stale").empty());
}

TEST(TagEntryTest, ComparisonIsNotAReassignment)
{
    // `e == nullptr` must not freshen the binding: only `e = ...`
    // (a re-find) does.
    const auto r = analyze(
        {{"src/cache/bad.cc",
          "void f(Set &set) {\n"
          "    TagEntry *e = set.find(line);\n"
          "    set.insert(entry);\n"
          "    if (e == nullptr) return;\n"
          "    e->dirty = true;\n"
          "}\n"}});
    EXPECT_EQ(where(r, "tagentry-stale").size(), 1u);
}

TEST(TagEntryTest, QuietOnPointerBoundToTouchResult)
{
    // touch() returns the MRU entry: the assignment takes effect after
    // the reordering call in its own right-hand side.
    const auto r = analyze(
        {{"src/cache/good.cc",
          "void f(Set &set) {\n"
          "    TagEntry *e = set.find(line);\n"
          "    if (e->prefetch) hit(*e);\n"
          "    e = set.touch(e);\n"
          "    e->dirty = true;\n"
          "    TagEntry *m = set.touch(set.find(other));\n"
          "    m->prefetch = false;\n"
          "}\n"}});
    EXPECT_TRUE(where(r, "tagentry-stale").empty());
}

TEST(TagEntryTest, FiresWhenTouchResultOutlivesLaterReorder)
{
    const auto r = analyze(
        {{"src/cache/bad.cc",
          "void f(Set &set) {\n"
          "    TagEntry *e = set.find(line);\n"
          "    e = set.touch(e);\n"
          "    set.insert(entry);\n"
          "    e->dirty = true;\n"
          "}\n"}});
    const auto hits = where(r, "tagentry-stale");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0], "src/cache/bad.cc:5");
}

TEST(TagEntryTest, TouchAssignmentStillStalesOtherBindings)
{
    // Only the assigned pointer is fresh; every other TagEntry* into
    // the set was moved by the touch.
    const auto r = analyze(
        {{"src/cache/bad.cc",
          "void f(Set &set) {\n"
          "    TagEntry *a = set.find(x);\n"
          "    TagEntry *b = set.find(y);\n"
          "    b = set.touch(b);\n"
          "    b->dirty = true;\n"
          "    a->dirty = true;\n"
          "}\n"}});
    const auto hits = where(r, "tagentry-stale");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0], "src/cache/bad.cc:6");
}

TEST(TagEntryTest, ScopeExitKillsBindings)
{
    const auto r = analyze(
        {{"src/cache/good.cc",
          "void f(Set &set) {\n"
          "    { TagEntry *e = set.find(line); use(e); }\n"
          "    set.touch(line);\n"
          "    { TagEntry *e = set.find(line); e->dirty = true; }\n"
          "}\n"}});
    EXPECT_TRUE(where(r, "tagentry-stale").empty());
}

// ----------------------------------------------------- knob-registry

AnalysisContext
knobCtx()
{
    AnalysisContext ctx;
    ctx.readme = "| variable | default | meaning |\n"
                 "|---|---|---|\n"
                 "| `CMPSIM_FOO` | 1 | documented and read |\n"
                 "| `CMPSIM_STALE` | — | documented, read nowhere |\n"
                 "| `CMPSIM_BUILDKNOB` | — | cmake cache variable |\n";
    ctx.cmake = "set(CMPSIM_BUILDKNOB \"\" CACHE STRING \"...\")\n";
    return ctx;
}

TEST(KnobRegistryTest, FiresOnUndocumentedAndStaleKnobs)
{
    const auto r = analyze(
        {{"src/core_api/k.cc",
          "void f() {\n"
          "    getenv(\"CMPSIM_FOO\");\n"
          "    getenv(\"CMPSIM_BAR\");\n" // undocumented
          "}\n"}},
        knobCtx());
    const auto hits = where(r, "knob-registry");
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_EQ(hits[0], "README.md:4");         // CMPSIM_STALE row
    EXPECT_EQ(hits[1], "src/core_api/k.cc:3"); // CMPSIM_BAR read
}

TEST(KnobRegistryTest, CmakeKnobsSatisfyTheReverseCheck)
{
    const auto r = analyze(
        {{"src/core_api/k.cc", "void f() { getenv(\"CMPSIM_FOO\"); }\n"}},
        knobCtx());
    // CMPSIM_BUILDKNOB is documented and unread, but appears in the
    // CMake context, so only CMPSIM_STALE fires.
    const auto hits = where(r, "knob-registry");
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0], "README.md:4");
}

TEST(KnobRegistryTest, ConfigKnobNeedsValidateCoverage)
{
    AnalysisContext ctx;
    ctx.readme = "| `CMPSIM_DRAM` | `fixed` | backend |\n";
    const auto bad = analyze(
        {{"src/core_api/k.cc", "void f() { getenv(\"CMPSIM_DRAM\"); }\n"}},
        ctx);
    EXPECT_EQ(where(bad, "knob-registry").size(), 1u);

    const auto good = analyze(
        {{"src/core_api/k.cc", "void f() { getenv(\"CMPSIM_DRAM\"); }\n"},
         {"src/dram/v.cc",
          "void v() { reject(\"config.dram.banks\", \"...\"); }\n"}},
        ctx);
    EXPECT_TRUE(where(good, "knob-registry").empty());
}

TEST(KnobRegistryTest, SkipsEntirelyWithoutAReadme)
{
    const auto r = analyze(
        {{"src/core_api/k.cc", "void f() { getenv(\"CMPSIM_BAR\"); }\n"}});
    EXPECT_TRUE(where(r, "knob-registry").empty());
}

// -------------------------------------------------------- fault-site

TEST(FaultSiteTest, FiresOnUntestedAndUndocumentedSites)
{
    AnalysisContext ctx;
    ctx.tests_blob = "faultSite(\"l2.fill\");\n";
    ctx.design = "## 8. Failure model\nsites: `l2.fill`\n## 9. Next\n";
    const auto r = analyze(
        {{"src/dram/d.cc", "void f() { faultSite(\"dram.access\"); }\n"}},
        ctx);
    // Both legs fire for the same probe: untested and undocumented.
    EXPECT_EQ(where(r, "fault-site").size(), 2u);
}

TEST(FaultSiteTest, PlanStringsAndSection8EntriesSatisfyCoverage)
{
    AnalysisContext ctx;
    // A plan string with trailing fields counts as injection.
    ctx.tests_blob = "FaultPlan::parse(\"dram.access:2:all\");\n";
    ctx.design = "## 8. Failure model\nsites: `dram.access`\n";
    const auto r = analyze(
        {{"src/dram/d.cc", "void f() { faultSite(\"dram.access\"); }\n"}},
        ctx);
    EXPECT_TRUE(where(r, "fault-site").empty());
}

TEST(FaultSiteTest, OnlySection8IsConsulted)
{
    AnalysisContext ctx;
    ctx.tests_blob = "faultSite(\"x.y\");\n";
    // The site is named in §10 but not in §8's failure model: the
    // doc leg must still fire (this is the dram.access drift the
    // check was built to catch).
    ctx.design = "## 8. Failure model\nsites: `l2.fill`\n"
                 "## 10. DRAM\nthe `x.y` probe\n";
    const auto r = analyze(
        {{"src/dram/d.cc", "void f() { faultSite(\"x.y\"); }\n"}}, ctx);
    EXPECT_EQ(where(r, "fault-site").size(), 1u);
}

// ------------------------------------------------------ shared-state

TEST(SharedStateTest, FiresOnMutableStaticsAndGlobals)
{
    const auto r = analyze(
        {{"src/sim/bad.cc",
          "int hit_count = 0;\n"            // namespace-scope global
          "namespace {\n"
          "thread_local bool armed = false;\n"
          "}\n"
          "void f() { static int calls = 0; ++calls; }\n"}});
    EXPECT_EQ(where(r, "shared-state").size(), 3u);
}

TEST(SharedStateTest, QuietOnConstAtomicAndFunctionDecls)
{
    const auto r = analyze(
        {{"src/sim/good.cc",
          "constexpr int kLimit = 8;\n"
          "const char *const kName = \"x\";\n"
          "static std::atomic<int> live_count{0};\n"
          "constexpr static int kLeading = 1;\n" // specifier before static
          "static int helper(int);\n" // declaration, not state
          "void f() { int local = 0; use(local); }\n"}});
    EXPECT_TRUE(where(r, "shared-state").empty());
}

TEST(SharedStateTest, ScopedToKernelDirectories)
{
    // The same mutable static outside src/sim|cache|dram is allowed:
    // the check guards the simulation-kernel directories only.
    const auto r = analyze(
        {{"src/core_api/ok.cc", "static int call_count = 0;\n"}});
    EXPECT_TRUE(where(r, "shared-state").empty());
}

TEST(SharedStateTest, ConstinitDoesNotExemptMutableState)
{
    // constinit fixes how a variable is initialized, not whether it is
    // written later: each of these is flagged exactly once.
    const auto r = analyze(
        {{"src/sim/probe.cc",
          "static constinit int hidden_counter = 0;\n"
          "constinit int global_hits = 0;\n"
          "static constinit thread_local int per_thread = 0;\n"
          "void bump() { ++hidden_counter; ++global_hits; }\n"}});
    EXPECT_EQ(where(r, "shared-state"),
              (std::vector<std::string>{"src/sim/probe.cc:1",
                                        "src/sim/probe.cc:2",
                                        "src/sim/probe.cc:3"}));
}

TEST(SharedStateTest, ExternAnywhereInSpecifiersIsARedeclaration)
{
    // The extern declarations are not definitions, however many
    // specifiers sit between `extern` and `thread_local`; only the
    // definition is flagged.
    const auto r = analyze(
        {{"src/sim/probe.h",
          "namespace detail {\n"
          "extern constinit thread_local bool armed;\n"
          "extern thread_local int *slot;\n"
          "}\n"},
         {"src/sim/probe.cc",
          "constinit thread_local bool armed = false;\n"}});
    EXPECT_EQ(where(r, "shared-state"),
              (std::vector<std::string>{"src/sim/probe.cc:1"}));
}

TEST(SharedStateTest, ClassMembersAreNotGlobals)
{
    const auto r = analyze(
        {{"src/sim/good.cc",
          "class EventQueue {\n"
          "    int size_ = 0;\n"
          "    std::vector<Event> heap_;\n"
          "};\n"}});
    EXPECT_TRUE(where(r, "shared-state").empty());
}

// ------------------------------------------------------- suppression

TEST(SuppressionTest, SameLineAndLineAboveSuppressWithReason)
{
    const auto r = analyze(
        {{"src/sim/s.cc",
          "void f() {\n"
          "    int a = rand(); // analyze-ok: nondet-source unit-test seed path\n"
          "    // analyze-ok: nondet-source second form, reason here\n"
          "    int b = rand();\n"
          "}\n"}});
    EXPECT_TRUE(r.findings.empty());
    ASSERT_EQ(r.suppressed.size(), 2u);
    EXPECT_EQ(r.suppressed[0].reason, "unit-test seed path");
}

TEST(SuppressionTest, MissingReasonIsItselfAFindingAndDoesNotSuppress)
{
    const auto r = analyze(
        {{"src/sim/s.cc",
          "void f() {\n"
          "    int a = rand(); // analyze-ok: nondet-source\n"
          "}\n"}});
    // Both the original finding and the reasonless suppression fire.
    EXPECT_EQ(where(r, "nondet-source").size(), 1u);
    EXPECT_EQ(where(r, "suppression").size(), 1u);
    EXPECT_TRUE(r.suppressed.empty());
}

TEST(SuppressionTest, UnknownCheckIdIsAFinding)
{
    const auto r = analyze(
        {{"src/sim/s.cc",
          "// analyze-ok: no-such-check some reason\nint x;\n"}});
    ASSERT_EQ(where(r, "suppression").size(), 1u);
    EXPECT_NE(r.findings[0].message.find("no-such-check"),
              std::string::npos);
}

TEST(SuppressionTest, SuppressionOnlyCoversItsOwnLineAndCheck)
{
    const auto r = analyze(
        {{"src/sim/s.cc",
          "void f() {\n"
          "    int a = rand(); // analyze-ok: unordered-iter wrong check\n"
          "    int b = rand();\n"
          "}\n"}});
    // Wrong check id on line 2, nothing on line 3: both findings stand.
    EXPECT_EQ(where(r, "nondet-source").size(), 2u);
}

// -------------------------------------------------------------- JSON

TEST(JsonTest, SchemaShapeAndOrderingAreStable)
{
    const auto r = analyze(
        {{"src/sim/z.cc", "void f() { int a = rand(); }\n"},
         {"src/sim/a.cc", "void g() { int b = rand(); }\n"}});
    const std::string json = toJson(r);

    EXPECT_NE(json.find("\"schema\": \"cmpsim.analyze.v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"files_scanned\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"findings\": ["), std::string::npos);
    EXPECT_NE(json.find("\"suppressed\": ["), std::string::npos);
    // Findings sort by (file, line, check): a.cc before z.cc even
    // though z.cc was lexed first.
    EXPECT_LT(json.find("src/sim/a.cc"), json.find("src/sim/z.cc"));
    // Every finding row carries the full field set.
    EXPECT_NE(json.find("\"check\": \"nondet-source\", \"file\": "
                        "\"src/sim/a.cc\", \"line\": 1, \"message\": "),
              std::string::npos);
}

TEST(JsonTest, MessagesAreEscaped)
{
    AnalysisResult r;
    r.findings.push_back({"x", "f.cc", 1, "quote \" backslash \\ tab \t"});
    const std::string json = toJson(r);
    EXPECT_NE(json.find("quote \\\" backslash \\\\ tab \\t"),
              std::string::npos);
}

// --------------------------------------------------------- self-scan

/** Walk the shipped tree exactly like cmpsim_analyze's driver. */
AnalysisResult
scanRepo()
{
    namespace fs = std::filesystem;
    const fs::path root = CMPSIM_REPO_ROOT;

    auto slurp = [](const fs::path &p) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        return ss.str();
    };

    Corpus corpus;
    std::vector<fs::path> files;
    for (const char *dir : {"src", "tools", "bench", "examples"}) {
        if (!fs::is_directory(root / dir))
            continue;
        for (const auto &e : fs::recursive_directory_iterator(root / dir)) {
            const std::string ext = e.path().extension().string();
            if (e.is_regular_file() && (ext == ".cc" || ext == ".h"))
                files.push_back(e.path());
        }
    }
    std::sort(files.begin(), files.end());
    for (const fs::path &p : files) {
        corpus.files.push_back(
            lexSource(fs::relative(p, root).generic_string(), slurp(p)));
    }

    AnalysisContext ctx;
    ctx.readme = slurp(root / "README.md");
    ctx.design = slurp(root / "DESIGN.md");
    ctx.cmake = slurp(root / "CMakeLists.txt");
    std::vector<fs::path> tests;
    for (const auto &e :
         fs::recursive_directory_iterator(root / "tests")) {
        const std::string ext = e.path().extension().string();
        if (e.is_regular_file() && (ext == ".cc" || ext == ".h"))
            tests.push_back(e.path());
    }
    std::sort(tests.begin(), tests.end());
    for (const fs::path &p : tests)
        ctx.tests_blob += slurp(p) + "\n";

    return runAnalysis(corpus, ctx);
}

TEST(SelfScanTest, ShippedTreeIsClean)
{
    const AnalysisResult r = scanRepo();
    ASSERT_GT(r.files_scanned, 50u) << "walk found too few files — "
                                       "CMPSIM_REPO_ROOT misconfigured?";
    std::string details;
    for (const Finding &f : r.findings) {
        details += f.file + ":" + std::to_string(f.line) + ": [" +
                   f.check + "] " + f.message + "\n";
    }
    EXPECT_TRUE(r.findings.empty()) << details;
}

TEST(SelfScanTest, EverySuppressionCarriesAReason)
{
    const AnalysisResult r = scanRepo();
    EXPECT_FALSE(r.suppressed.empty())
        << "the tree documents known-safe sites via suppressions; "
           "none found suggests the scan missed them";
    for (const SuppressedFinding &s : r.suppressed)
        EXPECT_FALSE(s.reason.empty())
            << s.file << ":" << s.line << " (" << s.check << ")";
}

} // namespace
} // namespace cmpsim::analyze
