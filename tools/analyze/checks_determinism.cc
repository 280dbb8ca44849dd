/**
 * @file
 * Determinism checkers: every simulated result must be a pure
 * function of (config, seed) — DESIGN.md §6's reproducibility gate is
 * only as strong as the absence of ambient entropy.
 *
 * nondet-source: bans the raw randomness / wall-clock identifiers in
 * simulator code (all randomness must flow from the seeded Random
 * class). The check reads tokens, so a banned name inside a comment
 * or string cannot fire, and a banned call split across lines does
 * not hide.
 *
 * unordered-iter: flags iteration over std::unordered_map/set in
 * src/. Iteration order is implementation-defined, so any loop whose
 * body feeds stats, fingerprints, or output silently ties results to
 * the standard library's hash layout. Order-independent loops
 * (integer sums, existence scans) are suppressed with a written
 * reason; everything else must iterate in sorted order.
 */

#include <set>
#include <string>

#include "tools/analyze/checker.h"

namespace cmpsim::analyze {

namespace {

// ------------------------------------------------------ nondet-source

/** Names banned when called: ambient time / libc randomness. */
bool
bannedCall(const std::string &name)
{
    return name == "rand" || name == "srand" || name == "time" ||
           name == "gettimeofday" || name == "clock_gettime";
}

/** Names banned on sight: unseeded RNG engine / entropy types. */
bool
bannedType(const std::string &name)
{
    return name == "random_device" || name == "mt19937" ||
           name == "mt19937_64" || name == "minstd_rand" ||
           name == "default_random_engine";
}

class NondetSourceChecker final : public Checker
{
  public:
    const char *id() const override { return "nondet-source"; }
    const char *description() const override
    {
        return "banned nondeterminism sources (rand/time/etc.) in "
               "simulator code";
    }

    void checkFile(const SourceFile &f, const AnalysisContext &,
                   std::vector<Finding> &out) const override
    {
        const auto &t = f.tokens;
        for (std::size_t i = 0; i < t.size(); ++i) {
            if (t[i].kind != TokKind::Ident)
                continue;
            const bool member_access =
                i > 0 && (isPunct(t, i - 1, ".") ||
                          isPunct(t, i - 1, "->"));
            // `X::time(...)` is only banned when X is std; any other
            // qualifier names a user function.
            const bool qualified = i > 0 && isPunct(t, i - 1, "::");
            const bool std_qualified =
                qualified && i > 1 && isIdent(t, i - 2, "std");

            if (bannedType(t[i].text)) {
                if (member_access || (qualified && !std_qualified))
                    continue;
                out.push_back(
                    {id(), f.path, t[i].line,
                     "banned nondeterminism source 'std::" + t[i].text +
                         "': all randomness must flow from the seeded "
                         "Random class (src/common/random.h)"});
                continue;
            }
            if (bannedCall(t[i].text) && isPunct(t, i + 1, "(")) {
                if (member_access || (qualified && !std_qualified))
                    continue;
                out.push_back(
                    {id(), f.path, t[i].line,
                     "banned call '" + t[i].text +
                         "()': wall-clock and libc randomness break "
                         "the (config, seed) -> result guarantee"});
            }
        }
    }
};

// ------------------------------------------------------ unordered-iter

/** Skip a template argument list: @p i indexes the opening '<'.
 *  Returns the index just past the closing '>' (treating '>>' as two
 *  closers), or npos-like tokens.size() when it isn't one. */
std::size_t
skipAngles(const std::vector<Token> &t, std::size_t i)
{
    int depth = 0;
    for (std::size_t k = i; k < t.size(); ++k) {
        if (t[k].kind != TokKind::Punct) {
            continue;
        } else if (t[k].text == "<") {
            ++depth;
        } else if (t[k].text == ">") {
            if (--depth == 0)
                return k + 1;
        } else if (t[k].text == ">>") {
            depth -= 2;
            if (depth <= 0)
                return k + 1;
        } else if (t[k].text == ";" || t[k].text == "{" ||
                   t[k].text == "}") {
            return t.size(); // not a template argument list
        }
    }
    return t.size();
}

class UnorderedIterChecker final : public Checker
{
  public:
    const char *id() const override { return "unordered-iter"; }
    const char *description() const override
    {
        return "iteration over std::unordered_map/set in src/ "
               "(implementation-defined order)";
    }

    void checkCorpus(const Corpus &corpus, const AnalysisContext &,
                     std::vector<Finding> &out) const override
    {
        // Pass 1 (all analyzed files, headers included): names
        // declared with an unordered container type or an alias of
        // one — variables, members, parameters, and functions
        // returning one. Aliases first: a header may declare the
        // alias that another file's declarations use.
        std::set<std::string> aliases;
        for (const SourceFile &f : corpus.files)
            collectAliases(f, aliases);
        std::set<std::string> names;
        for (const SourceFile &f : corpus.files)
            collectNames(f, aliases, names);
        if (names.empty())
            return;

        // Pass 2 (src/ only, per the invariant's scope): range-for
        // expressions and .begin() calls that touch a collected name.
        for (const SourceFile &f : corpus.files) {
            if (!f.under("src"))
                continue;
            scanIteration(f, names, out);
        }
    }

  private:
    static bool
    isUnordered(const std::vector<Token> &t, std::size_t i)
    {
        return (isIdent(t, i, "unordered_map") ||
                isIdent(t, i, "unordered_set")) &&
               isPunct(t, i + 1, "<");
    }

    /** `using X = [std::]unordered_map<...>` (or unordered_set)
     *  records X. */
    static void
    collectAliases(const SourceFile &f, std::set<std::string> &aliases)
    {
        const auto &t = f.tokens;
        for (std::size_t i = 0; i + 1 < t.size(); ++i) {
            if (!isIdent(t, i, "using") ||
                t[i + 1].kind != TokKind::Ident || !isPunct(t, i + 2, "="))
                continue;
            std::size_t k = i + 3;
            if (isIdent(t, k, "std") && isPunct(t, k + 1, "::"))
                k += 2;
            if (isUnordered(t, k))
                aliases.insert(t[i + 1].text);
        }
    }

    /** Names declared with an unordered type or one of @p aliases
     *  (`X name`, not `X::member`). */
    static void
    collectNames(const SourceFile &f, const std::set<std::string> &aliases,
                 std::set<std::string> &names)
    {
        const auto &t = f.tokens;
        for (std::size_t i = 0; i < t.size(); ++i) {
            std::size_t p;
            if (isUnordered(t, i))
                p = skipAngles(t, i + 1);
            else if (t[i].kind == TokKind::Ident && aliases.count(t[i].text))
                p = i + 1;
            else
                continue;
            while (p < t.size() &&
                   (isPunct(t, p, "&") || isPunct(t, p, "*") ||
                    isIdent(t, p, "const")))
                ++p;
            if (p < t.size() && t[p].kind == TokKind::Ident)
                names.insert(t[p].text);
        }
    }

    void
    scanIteration(const SourceFile &f, const std::set<std::string> &names,
                  std::vector<Finding> &out) const
    {
        const auto &t = f.tokens;
        for (std::size_t i = 0; i < t.size(); ++i) {
            // name.begin( / name.cbegin( — explicit iterator loops
            // and <algorithm> calls.
            if (t[i].kind == TokKind::Ident && names.count(t[i].text) &&
                isPunct(t, i + 1, ".") &&
                (isIdent(t, i + 2, "begin") ||
                 isIdent(t, i + 2, "cbegin")) &&
                isPunct(t, i + 3, "(")) {
                report(f, t[i], out);
                continue;
            }
            // Range-for: for ( decl : expr ) with a collected name
            // anywhere in expr.
            if (!isIdent(t, i, "for") || !isPunct(t, i + 1, "("))
                continue;
            const std::size_t close = matchForward(t, i + 1, "(", ")");
            std::size_t colon = t.size();
            int depth = 0;
            for (std::size_t k = i + 1; k < close; ++k) {
                if (isPunct(t, k, "(") || isPunct(t, k, "[") ||
                    isPunct(t, k, "{"))
                    ++depth;
                else if (isPunct(t, k, ")") || isPunct(t, k, "]") ||
                         isPunct(t, k, "}"))
                    --depth;
                else if (depth == 1 && isPunct(t, k, ":")) {
                    colon = k;
                    break;
                }
            }
            if (colon == t.size())
                continue;
            int expr_depth = 0;
            for (std::size_t k = colon + 1; k < close; ++k) {
                if (isPunct(t, k, "(") || isPunct(t, k, "[") ||
                    isPunct(t, k, "{")) {
                    ++expr_depth;
                    continue;
                }
                if (isPunct(t, k, ")") || isPunct(t, k, "]") ||
                    isPunct(t, k, "}")) {
                    --expr_depth;
                    continue;
                }
                if (t[k].kind != TokKind::Ident ||
                    names.count(t[k].text) == 0)
                    continue;
                // A name nested inside a call's argument list
                // (`sortedKeys(m)`) is being transformed, not
                // iterated — the sorted-copy idiom this check asks
                // for. Only the top level of the range expression
                // decides what the loop walks.
                if (expr_depth != 0)
                    continue;
                // Likewise a receiver position (`m.waiters`) says
                // nothing about what is iterated — only the terminal
                // member / call decides. `obj.demand()` still matches
                // via the member name.
                if (isPunct(t, k + 1, ".") || isPunct(t, k + 1, "->"))
                    continue;
                report(f, t[k], out);
                break;
            }
        }
    }

    void
    report(const SourceFile &f, const Token &tok,
           std::vector<Finding> &out) const
    {
        out.push_back(
            {id(), f.path, tok.line,
             "iteration over unordered container '" + tok.text +
                 "': order is implementation-defined; iterate a "
                 "sorted copy if results feed stats/fingerprints/"
                 "output, or suppress with the order-independence "
                 "argument"});
    }
};

} // namespace

std::unique_ptr<Checker>
makeNondetSourceChecker()
{
    return std::make_unique<NondetSourceChecker>();
}

std::unique_ptr<Checker>
makeUnorderedIterChecker()
{
    return std::make_unique<UnorderedIterChecker>();
}

} // namespace cmpsim::analyze
