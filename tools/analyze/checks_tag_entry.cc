/**
 * @file
 * tagentry-stale: a `TagEntry *` obtained from DecoupledSet::find()
 * dangles across any call that reorders the set's entries —
 * touch(), insert(), resize(), invalidate() all rotate entries in
 * place (decoupled_set.h documents the hazard on touch()). The
 * supported idioms are find -> mutate -> re-find and
 * `p = set.touch(p)`, which returns the moved entry.
 *
 * Replaces tools/lint.sh's line-oriented awk heuristic with a real
 * scoped-binding analysis over the token stream:
 *
 *  - a binding is born at `TagEntry *p = ...` and dies when its brace
 *    scope closes;
 *  - any member-style or unqualified call to a reordering method
 *    marks every live binding stale (recording the call line);
 *  - a later use of a stale binding (`p->`, `p[`, or `*p` in
 *    expression position) is a finding, unless a reassignment
 *    `p = ...` (the re-find) intervened;
 *  - an initialization or assignment takes effect at the end of its
 *    statement, after any reordering call in its right-hand side, so
 *    `p = set.touch(p)` (touch() returns the moved entry) leaves `p`
 *    fresh while still marking every other binding stale.
 *
 * The analysis is deliberately control-flow-insensitive and
 * receiver-type-blind (it cannot prove `other.insert()` touches a
 * different object), so it over-approximates toward findings — the
 * correct bias for a use-after-free class whose symptom is silently
 * skewed statistics.
 */

#include <string>
#include <vector>

#include "tools/analyze/checker.h"

namespace cmpsim::analyze {

namespace {

bool
reorderingMethod(const std::string &name)
{
    return name == "touch" || name == "insert" || name == "resize" ||
           name == "invalidate";
}

struct Binding
{
    std::string name;
    int decl_line = 0;
    int depth = 0;        ///< brace depth at declaration
    int stale_line = 0;   ///< 0 = fresh; else line of reordering call
    std::size_t assigned_at = 0; ///< token ending the latest assignment
};

/** Index of the `;` ending the statement that contains token @p i
 *  (nested parentheses, brackets and braces skipped), or t.size(). */
std::size_t
statementEnd(const std::vector<Token> &t, std::size_t i)
{
    int depth = 0;
    for (std::size_t k = i; k < t.size(); ++k) {
        if (isPunct(t, k, "(") || isPunct(t, k, "[") || isPunct(t, k, "{"))
            ++depth;
        else if (isPunct(t, k, ")") || isPunct(t, k, "]") ||
                 isPunct(t, k, "}"))
            --depth;
        else if (depth == 0 && isPunct(t, k, ";"))
            return k;
        if (depth < 0)
            return k;
    }
    return t.size();
}

class TagEntryChecker final : public Checker
{
  public:
    const char *id() const override { return "tagentry-stale"; }
    const char *description() const override
    {
        return "TagEntry* held across DecoupledSet "
               "touch()/insert()/resize()/invalidate()";
    }

    void checkFile(const SourceFile &f, const AnalysisContext &,
                   std::vector<Finding> &out) const override
    {
        const auto &t = f.tokens;
        std::vector<Binding> live;
        int depth = 0;

        for (std::size_t i = 0; i < t.size(); ++i) {
            // An assignment completes: its target holds the value of
            // the whole right-hand side, reordering calls included.
            for (Binding &b : live) {
                if (b.assigned_at == i)
                    b.stale_line = 0;
            }
            if (isPunct(t, i, "{")) {
                ++depth;
                continue;
            }
            if (isPunct(t, i, "}")) {
                --depth;
                for (std::size_t b = live.size(); b-- > 0;) {
                    if (live[b].depth > depth)
                        live.erase(live.begin() +
                                   static_cast<std::ptrdiff_t>(b));
                }
                continue;
            }
            if (t[i].kind != TokKind::Ident)
                continue;

            // Birth: TagEntry *p = ...
            if (t[i].text == "TagEntry" && isPunct(t, i + 1, "*") &&
                i + 2 < t.size() && t[i + 2].kind == TokKind::Ident &&
                isPunct(t, i + 3, "=")) {
                Binding b;
                b.name = t[i + 2].text;
                b.decl_line = t[i + 2].line;
                b.depth = depth;
                b.assigned_at = statementEnd(t, i + 4);
                // Replace a shadowed same-name binding.
                bool replaced = false;
                for (Binding &old : live) {
                    if (old.name == b.name) {
                        old = b;
                        replaced = true;
                        break;
                    }
                }
                if (!replaced)
                    live.push_back(b);
                i += 3;
                continue;
            }

            // Reordering call: .touch( / ->insert( / bare resize(.
            if (reorderingMethod(t[i].text) && isPunct(t, i + 1, "(")) {
                for (Binding &b : live) {
                    if (b.stale_line == 0)
                        b.stale_line = t[i].line;
                }
                continue;
            }

            // Reassignment (the re-find idiom) freshens the binding.
            // `p ==`/`p !=` are distinct tokens, so only plain `=`
            // matches here.
            Binding *bound = nullptr;
            for (Binding &b : live) {
                if (b.name == t[i].text) {
                    bound = &b;
                    break;
                }
            }
            if (bound == nullptr)
                continue;
            if (isPunct(t, i + 1, "=")) {
                bound->stale_line = 0;
                bound->assigned_at = statementEnd(t, i + 2);
                continue;
            }

            // Use of the pointer value: p-> , p[ , or *p in
            // expression position.
            const bool deref_use =
                isPunct(t, i + 1, "->") || isPunct(t, i + 1, "[") ||
                (i > 0 && isPunct(t, i - 1, "*") && i > 1 &&
                 (isPunct(t, i - 2, "(") || isPunct(t, i - 2, ",") ||
                  isPunct(t, i - 2, "=") || isPunct(t, i - 2, ";") ||
                  isIdent(t, i - 2, "return")));
            if (deref_use && bound->stale_line != 0) {
                out.push_back(
                    {id(), f.path, t[i].line,
                     "'" + bound->name + "' (TagEntry* from line " +
                         std::to_string(bound->decl_line) +
                         ") used after a reordering call on line " +
                         std::to_string(bound->stale_line) +
                         " invalidated it; re-find() before use"});
                // One report per staleness episode: freshen so a
                // long function doesn't repeat the same root cause.
                bound->stale_line = 0;
            }
        }
    }
};

} // namespace

std::unique_ptr<Checker>
makeTagEntryChecker()
{
    return std::make_unique<TagEntryChecker>();
}

} // namespace cmpsim::analyze
