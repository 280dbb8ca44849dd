/**
 * @file
 * shared-state: mutable namespace-scope globals and non-const
 * statics in the simulation-kernel directories (src/sim and
 * src/cache). The determinism guarantee rests on DESIGN.md section
 * 7's ownership model — one CmpSystem owns all of its state — and
 * the parallel runner's workers simulate several CmpSystems at once
 * in one process, so state hidden outside the object graph would
 * leak between concurrently running points. Every such variable
 * must be const/constexpr, std::atomic, or carry an explicit
 * suppression arguing why it is safe (e.g. a thread_local that only
 * its own worker thread ever reads or writes). `constinit` only
 * fixes how a variable is initialized, not whether it is written
 * later, so it does not exempt anything.
 *
 * Two scans:
 *  - declaration-keyword scan: `static` / `thread_local` declarations
 *    anywhere in the file that declare a mutable object (function
 *    declarations, const/constexpr/atomic objects and `extern`
 *    redeclarations pass; the whole declaration-specifier run before
 *    the keyword counts, so `extern constinit thread_local` is a
 *    redeclaration);
 *  - namespace-scope scan: plain variable definitions at namespace
 *    scope (tracked with a brace-scope classifier), which share state
 *    without any keyword at all.
 *
 * Known accepted miss: constructor-style initializers (`static Foo
 * x(1);`) parse like function declarations; the codebase uses
 * brace/equals init, and the audit/test layers back this up.
 */

#include <string>
#include <vector>

#include "tools/analyze/checker.h"

namespace cmpsim::analyze {

namespace {

bool
scopedDir(const SourceFile &f)
{
    return f.under("src/sim") || f.under("src/cache");
}

bool
immutableMarker(const Token &t)
{
    return t.kind == TokKind::Ident &&
           (t.text == "const" || t.text == "constexpr" ||
            t.text == "atomic" || t.text == "atomic_flag");
}

/** A keyword that can lead a variable's declaration-specifier run. */
bool
declSpecifier(const Token &t)
{
    return t.kind == TokKind::Ident &&
           (t.text == "extern" || t.text == "static" ||
            t.text == "thread_local" || t.text == "constinit" ||
            t.text == "constexpr" || t.text == "const" ||
            t.text == "inline" || t.text == "volatile");
}

/** static / thread_local / extern: the keyword scan's territory. */
bool
storageKeyword(const Token &t)
{
    return t.text == "static" || t.text == "thread_local" ||
           t.text == "extern";
}

enum class Scope
{
    Namespace,
    Class,
    Block, ///< function body or other executable scope
    Init,  ///< brace initializer
};

class SharedStateChecker final : public Checker
{
  public:
    const char *id() const override { return "shared-state"; }
    const char *description() const override
    {
        return "mutable globals / non-const statics in src/sim and "
               "src/cache";
    }

    void checkFile(const SourceFile &f, const AnalysisContext &,
                   std::vector<Finding> &out) const override
    {
        if (!scopedDir(f))
            return;
        scanStaticDecls(f, out);
        scanNamespaceGlobals(f, out);
    }

  private:
    /** static / thread_local declarations that stay mutable. */
    void
    scanStaticDecls(const SourceFile &f,
                    std::vector<Finding> &out) const
    {
        const auto &t = f.tokens;
        for (std::size_t i = 0; i < t.size(); ++i) {
            const bool is_static = isIdent(t, i, "static");
            const bool is_tls = isIdent(t, i, "thread_local");
            if (!is_static && !is_tls)
                continue;
            // Walk back over the specifiers before the keyword:
            // `static thread_local` / `thread_local static` let the
            // first keyword drive; extern redeclarations are flagged
            // at their definition, not at every extern mention; and a
            // leading const/constexpr makes the object immutable.
            bool skip = false;
            bool immutable = false;
            for (std::size_t k = i; k > 0 && declSpecifier(t[k - 1]); --k) {
                skip |= storageKeyword(t[k - 1]);
                immutable |= immutableMarker(t[k - 1]);
            }
            if (skip || immutable)
                continue;

            bool function_like = false;
            std::string name;
            for (std::size_t k = i + 1; k < t.size(); ++k) {
                if (immutableMarker(t[k])) {
                    immutable = true;
                    break;
                }
                if (isPunct(t, k, ";") || isPunct(t, k, "=") ||
                    isPunct(t, k, "{"))
                    break;
                if (isPunct(t, k, "(")) {
                    // `static T name(...)` — a function declaration
                    // (or the accepted ctor-init miss, see header).
                    function_like = true;
                    break;
                }
                if (t[k].kind == TokKind::Ident)
                    name = t[k].text;
            }
            if (immutable || function_like)
                continue;
            out.push_back(
                {id(), f.path, t[i].line,
                 std::string(is_tls ? "thread_local" : "static") +
                     " mutable state '" + (name.empty() ? "?" : name) +
                     "' in a simulation-kernel directory: must be "
                     "const, std::atomic, or suppressed with a "
                     "sharing-safety argument"});
        }
    }

    /** Plain mutable variable definitions at namespace scope. */
    void
    scanNamespaceGlobals(const SourceFile &f,
                         std::vector<Finding> &out) const
    {
        const auto &t = f.tokens;
        std::vector<Scope> stack;
        std::vector<Token> stmt; // tokens since the last ; { }
        int paren_depth = 0;

        auto atNamespaceScope = [&] {
            for (Scope s : stack) {
                if (s != Scope::Namespace)
                    return false;
            }
            return true;
        };

        auto classify = [&]() -> Scope {
            bool has_eq = false, has_paren = false, is_type = false,
                 is_ns = false;
            for (const Token &tok : stmt) {
                if (tok.kind == TokKind::Ident) {
                    if (tok.text == "namespace")
                        is_ns = true;
                    if (tok.text == "class" || tok.text == "struct" ||
                        tok.text == "union" || tok.text == "enum")
                        is_type = true;
                } else if (tok.kind == TokKind::Punct) {
                    if (tok.text == "=")
                        has_eq = true;
                    if (tok.text == "(")
                        has_paren = true;
                }
            }
            if (is_ns)
                return Scope::Namespace;
            if (has_eq)
                return Scope::Init;
            if (is_type && !has_paren)
                return Scope::Class;
            return Scope::Block;
        };

        auto maybeFlagStmt = [&](bool ends_in_init) {
            if (!atNamespaceScope() || stmt.empty())
                return;
            const Token &head = stmt.front();
            // static / thread_local / extern anywhere in the leading
            // specifier run: the keyword scan owns the statement.
            for (const Token &tok : stmt) {
                if (!declSpecifier(tok))
                    break;
                if (storageKeyword(tok))
                    return;
            }
            if (head.kind == TokKind::Ident &&
                (head.text == "using" || head.text == "typedef" ||
                 head.text == "template" || head.text == "friend" ||
                 head.text == "namespace" || head.text == "static_assert" ||
                 head.text == "class" || head.text == "struct" ||
                 head.text == "union" || head.text == "enum" ||
                 head.text == "public" || head.text == "private" ||
                 head.text == "protected"))
                return;
            bool has_eq = false, has_paren = false;
            std::size_t idents = 0;
            std::string name;
            for (const Token &tok : stmt) {
                if (immutableMarker(tok))
                    return; // const/constexpr/atomic: fine
                if (tok.kind == TokKind::Punct) {
                    if (tok.text == "(") {
                        has_paren = true;
                        break;
                    }
                    if (tok.text == "=") {
                        has_eq = true;
                        break;
                    }
                }
                if (tok.kind == TokKind::Ident) {
                    ++idents;
                    name = tok.text;
                }
            }
            if (has_paren)
                return; // prototype / ctor-init (accepted miss)
            if (!has_eq && !ends_in_init && idents < 2)
                return; // lone expression / label, not `Type name;`
            if (!has_eq && ends_in_init)
                return; // brace-init without '=' is a function body
            out.push_back(
                {id(), f.path, head.line,
                 "namespace-scope mutable variable '" +
                     (name.empty() ? "?" : name) +
                     "' in a simulation-kernel directory: must be "
                     "const, std::atomic, or suppressed with a "
                     "sharing-safety argument"});
        };

        for (std::size_t i = 0; i < t.size(); ++i) {
            if (isPunct(t, i, "("))
                ++paren_depth;
            else if (isPunct(t, i, ")"))
                --paren_depth;

            if (paren_depth == 0 && isPunct(t, i, "{")) {
                const Scope s = classify();
                if (s == Scope::Init)
                    maybeFlagStmt(/*ends_in_init=*/true);
                stack.push_back(s);
                stmt.clear();
                continue;
            }
            if (paren_depth == 0 && isPunct(t, i, "}")) {
                if (!stack.empty())
                    stack.pop_back();
                stmt.clear();
                continue;
            }
            if (paren_depth == 0 && isPunct(t, i, ";")) {
                maybeFlagStmt(/*ends_in_init=*/false);
                stmt.clear();
                continue;
            }
            stmt.push_back(t[i]);
        }
    }
};

} // namespace

std::unique_ptr<Checker>
makeSharedStateChecker()
{
    return std::make_unique<SharedStateChecker>();
}

} // namespace cmpsim::analyze
