/**
 * @file
 * Checker registry and analysis driver for cmpsim_analyze.
 *
 * A Checker inspects lexed token streams (lexer.h) and reports
 * Findings. Two hooks:
 *
 *  - checkFile():   per-file scans (banned tokens, scoped-binding
 *                   analyses);
 *  - checkCorpus(): cross-file invariants that need the whole
 *                   analyzed set plus repo context (env-knob drift
 *                   against README and the build's CMake knobs).
 *
 * Suppression contract: a finding of check `<id>` at line L is
 * suppressed by a `// analyze-ok: <id> <reason>` comment on line L
 * (trailing) or on line L-1 (a standalone comment above). The reason
 * is mandatory — a suppression without one, naming an unknown check
 * id, or suppressing no finding is itself a finding (check id
 * "suppression"). This keeps every silenced hazard carrying a written
 * justification in the source, greppable at the point of risk, and
 * no justification outliving its hazard.
 *
 * Adding a checker: implement the interface in a new checks_*.cc,
 * declare its factory in checker.cc's allCheckers() (explicit
 * registration — static-initializer tricks get dropped by the
 * archiver), and add positive/negative snippet tests to
 * tests/analyze_test.cc. DESIGN.md §11 documents the catalogue.
 */

#ifndef CMPSIM_ANALYZE_CHECKER_H
#define CMPSIM_ANALYZE_CHECKER_H

#include <memory>
#include <string>
#include <vector>

#include "tools/analyze/lexer.h"

namespace cmpsim::analyze {

struct Finding
{
    std::string check;   ///< check id, e.g. "nondet-source"
    std::string file;    ///< repo-relative path
    int line = 0;        ///< 1-based
    std::string message; ///< one-line human-readable statement
};

/** All analyzed files. */
struct Corpus
{
    std::vector<SourceFile> files;
};

/**
 * Repo context the cross-file checkers match against. The driver
 * loads these from --root; tests inject synthetic content directly.
 * An empty string means "not available": the dependent cross-check is
 * skipped rather than reporting the whole repo missing.
 */
struct AnalysisContext
{
    std::string readme; ///< README.md (env-knob table)
    std::string cmake;  ///< top-level CMakeLists.txt (build knobs)
};

class Checker
{
  public:
    virtual ~Checker() = default;

    virtual const char *id() const = 0;
    virtual const char *description() const = 0;

    virtual void checkFile(const SourceFile &file,
                           const AnalysisContext &ctx,
                           std::vector<Finding> &out) const
    {
        (void)file;
        (void)ctx;
        (void)out;
    }

    virtual void checkCorpus(const Corpus &corpus,
                             const AnalysisContext &ctx,
                             std::vector<Finding> &out) const
    {
        (void)corpus;
        (void)ctx;
        (void)out;
    }
};

/** The shipped checkers, in fixed report order. */
const std::vector<std::unique_ptr<Checker>> &allCheckers();

struct SuppressedFinding
{
    std::string check;
    std::string file;
    int line = 0;
    std::string reason;
};

struct AnalysisResult
{
    std::vector<Finding> findings; ///< unsuppressed, sorted
    std::vector<SuppressedFinding> suppressed;
    std::size_t files_scanned = 0;
};

/**
 * Run every registered checker over @p corpus, apply suppressions,
 * and validate suppression comments themselves. Findings are sorted
 * by (file, line, check) so output is stable across platforms.
 */
AnalysisResult runAnalysis(const Corpus &corpus,
                           const AnalysisContext &ctx);

/** Render @p result as the stable cmpsim.analyze.v1 JSON document. */
std::string toJson(const AnalysisResult &result);

// --- shared token helpers (used by several checkers) ---------------

/** True when tokens[i] is an Ident with this exact text. */
bool isIdent(const std::vector<Token> &toks, std::size_t i,
             const char *text);

/** True when tokens[i] is a Punct with this exact text. */
bool isPunct(const std::vector<Token> &toks, std::size_t i,
             const char *text);

/** Index of the matching closer for the opener at tokens[i]
 *  (e.g. '(' -> ')'); tokens.size() when unbalanced. */
std::size_t matchForward(const std::vector<Token> &toks, std::size_t i,
                         const char *open, const char *close);

} // namespace cmpsim::analyze

#endif // CMPSIM_ANALYZE_CHECKER_H
