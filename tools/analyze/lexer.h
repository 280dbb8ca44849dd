/**
 * @file
 * Comment- and string-aware C++ lexer for cmpsim_analyze.
 *
 * Deliberately not a compiler front-end: checkers reason about token
 * *streams*, which is exactly the level the simulator's hazards live
 * at (a banned identifier, a mutable static, a string literal naming
 * an env knob). The lexer guarantees:
 *
 *  - comments and string/char literal *bodies* never produce
 *    identifier tokens (so `// rand()` and `"time("` cannot fire a
 *    checker), while string literals survive as single String tokens
 *    carrying their unquoted text (the knob checker matches on
 *    them);
 *  - every token carries the 1-based line of the raw source it came
 *    from, including through block comments and raw strings;
 *  - `// analyze-ok: <check-id> <reason>` comments are collected as
 *    Suppression records (see checker.h for the grammar contract).
 *
 * The lexer never fails: unterminated constructs lex to end-of-file
 * rather than throwing, because an analyzer that dies on weird input
 * defends nothing.
 */

#ifndef CMPSIM_ANALYZE_LEXER_H
#define CMPSIM_ANALYZE_LEXER_H

#include <string>
#include <vector>

namespace cmpsim::analyze {

enum class TokKind
{
    Ident,  ///< identifier or keyword
    Number, ///< numeric literal (incl. hex / digit separators)
    String, ///< string literal; text holds the *unquoted* body
    Char,   ///< character literal; text holds the unquoted body
    Punct,  ///< operator / punctuation (multi-char ops are one token)
};

struct Token
{
    TokKind kind;
    std::string text;
    int line; ///< 1-based line in the raw file
};

/** One `// analyze-ok: <check-id> <reason>` comment. */
struct Suppression
{
    int line = 0;          ///< line the comment sits on
    std::string check_id;  ///< first word after the marker
    std::string reason;    ///< everything after the check id, trimmed
    /** Set by runAnalysis() when this suppression silenced a finding;
     *  an unused one is itself reported. */
    mutable bool used = false;
};

/** A lexed file: repo-relative path + tokens + suppressions. */
struct SourceFile
{
    std::string path; ///< repo-relative, '/'-separated
    std::vector<Token> tokens;
    std::vector<Suppression> suppressions;

    /** True when @p path is under directory @p dir ("src/cache"). */
    bool under(const std::string &dir) const;
};

/** Lex @p text as the contents of @p path. Never throws. */
SourceFile lexSource(const std::string &path, const std::string &text);

} // namespace cmpsim::analyze

#endif // CMPSIM_ANALYZE_LEXER_H
