#include "tools/analyze/checker.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace cmpsim::analyze {

// Factories live in the checks_*.cc files; explicit registration
// keeps link order irrelevant and report order fixed.
std::unique_ptr<Checker> makeNondetSourceChecker();
std::unique_ptr<Checker> makeUnorderedIterChecker();
std::unique_ptr<Checker> makeKnobRegistryChecker();
std::unique_ptr<Checker> makeSharedStateChecker();

const std::vector<std::unique_ptr<Checker>> &
allCheckers()
{
    static const std::vector<std::unique_ptr<Checker>> checkers = [] {
        std::vector<std::unique_ptr<Checker>> v;
        v.push_back(makeNondetSourceChecker());
        v.push_back(makeUnorderedIterChecker());
        v.push_back(makeKnobRegistryChecker());
        v.push_back(makeSharedStateChecker());
        return v;
    }();
    return checkers;
}

bool
isIdent(const std::vector<Token> &toks, std::size_t i, const char *text)
{
    return i < toks.size() && toks[i].kind == TokKind::Ident &&
           toks[i].text == text;
}

bool
isPunct(const std::vector<Token> &toks, std::size_t i, const char *text)
{
    return i < toks.size() && toks[i].kind == TokKind::Punct &&
           toks[i].text == text;
}

std::size_t
matchForward(const std::vector<Token> &toks, std::size_t i,
             const char *open, const char *close)
{
    int depth = 0;
    for (std::size_t k = i; k < toks.size(); ++k) {
        if (isPunct(toks, k, open))
            ++depth;
        else if (isPunct(toks, k, close) && --depth == 0)
            return k;
    }
    return toks.size();
}

AnalysisResult
runAnalysis(const Corpus &corpus, const AnalysisContext &ctx)
{
    AnalysisResult result;
    result.files_scanned = corpus.files.size();

    std::vector<Finding> raw;
    for (const auto &checker : allCheckers()) {
        for (const SourceFile &f : corpus.files)
            checker->checkFile(f, ctx, raw);
        checker->checkCorpus(corpus, ctx, raw);
    }

    std::set<std::string> known_ids{"suppression"};
    for (const auto &checker : allCheckers())
        known_ids.insert(checker->id());

    // Validate the suppression comments themselves: unknown check id
    // or missing reason is a finding, so a typo'd suppression cannot
    // silently keep "suppressing" nothing.
    for (const SourceFile &f : corpus.files) {
        for (const Suppression &s : f.suppressions) {
            if (known_ids.count(s.check_id) == 0) {
                raw.push_back({"suppression", f.path, s.line,
                               "analyze-ok names unknown check '" +
                                   s.check_id + "'"});
            } else if (s.reason.empty()) {
                raw.push_back({"suppression", f.path, s.line,
                               "analyze-ok for '" + s.check_id +
                                   "' carries no reason"});
            }
        }
    }

    // Apply suppressions: same line or the line directly above.
    for (Finding &fd : raw) {
        const SourceFile *file = nullptr;
        for (const SourceFile &f : corpus.files) {
            if (f.path == fd.file) {
                file = &f;
                break;
            }
        }
        bool drop = false;
        if (file != nullptr && fd.check != "suppression") {
            for (const Suppression &s : file->suppressions) {
                if (s.check_id == fd.check && !s.reason.empty() &&
                    (s.line == fd.line || s.line == fd.line - 1)) {
                    s.used = true;
                    result.suppressed.push_back(
                        {fd.check, fd.file, fd.line, s.reason});
                    drop = true;
                    break;
                }
            }
        }
        if (!drop)
            result.findings.push_back(std::move(fd));
    }

    // A well-formed suppression that silenced nothing is stale: the
    // hazard it excused is gone or the checker no longer sees it.
    for (const SourceFile &f : corpus.files) {
        for (const Suppression &s : f.suppressions) {
            if (!s.used && known_ids.count(s.check_id) != 0 &&
                !s.reason.empty()) {
                result.findings.push_back(
                    {"suppression", f.path, s.line,
                     "analyze-ok for '" + s.check_id +
                         "' suppresses no finding"});
            }
        }
    }

    auto byPlace = [](const auto &a, const auto &b) {
        if (a.file != b.file)
            return a.file < b.file;
        if (a.line != b.line)
            return a.line < b.line;
        return a.check < b.check;
    };
    std::sort(result.findings.begin(), result.findings.end(), byPlace);
    std::sort(result.suppressed.begin(), result.suppressed.end(),
              byPlace);
    return result;
}

AnalysisResult
analyzeRepo(const std::string &root)
{
    namespace fs = std::filesystem;
    auto slurp = [](const fs::path &p, std::string &out) {
        std::ifstream in(p, std::ios::binary);
        if (!in)
            return false;
        std::ostringstream ss;
        ss << in.rdbuf();
        out = ss.str();
        return true;
    };

    std::vector<fs::path> files;
    for (const char *dir : {"src", "tools", "bench", "examples"}) {
        const fs::path abs = fs::path(root) / dir;
        if (!fs::is_directory(abs))
            throw std::runtime_error("no such directory: " + abs.string());
        for (const auto &e : fs::recursive_directory_iterator(abs)) {
            const std::string ext = e.path().extension().string();
            if (e.is_regular_file() && (ext == ".cc" || ext == ".h"))
                files.push_back(e.path());
        }
    }
    std::sort(files.begin(), files.end());

    Corpus corpus;
    for (const fs::path &p : files) {
        std::string text;
        if (!slurp(p, text))
            throw std::runtime_error("cannot read " + p.string());
        corpus.files.push_back(
            lexSource(fs::relative(p, root).generic_string(), text));
    }

    // Either file may be missing: its cross-check is then skipped.
    AnalysisContext ctx;
    slurp(fs::path(root) / "README.md", ctx.readme);
    slurp(fs::path(root) / "CMakeLists.txt", ctx.cmake);
    return runAnalysis(corpus, ctx);
}

namespace {

void
appendJsonString(std::string &out, const std::string &s)
{
    out.push_back('"');
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
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

} // namespace

std::string
toJson(const AnalysisResult &result)
{
    std::string out;
    out += "{\n  \"schema\": \"cmpsim.analyze.v1\",\n";
    out += "  \"files_scanned\": " +
           std::to_string(result.files_scanned) + ",\n";

    out += "  \"findings\": [";
    for (std::size_t i = 0; i < result.findings.size(); ++i) {
        const Finding &f = result.findings[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"check\": ";
        appendJsonString(out, f.check);
        out += ", \"file\": ";
        appendJsonString(out, f.file);
        out += ", \"line\": " + std::to_string(f.line);
        out += ", \"message\": ";
        appendJsonString(out, f.message);
        out += "}";
    }
    out += result.findings.empty() ? "],\n" : "\n  ],\n";

    out += "  \"suppressed\": [";
    for (std::size_t i = 0; i < result.suppressed.size(); ++i) {
        const SuppressedFinding &s = result.suppressed[i];
        out += i == 0 ? "\n" : ",\n";
        out += "    {\"check\": ";
        appendJsonString(out, s.check);
        out += ", \"file\": ";
        appendJsonString(out, s.file);
        out += ", \"line\": " + std::to_string(s.line);
        out += ", \"reason\": ";
        appendJsonString(out, s.reason);
        out += "}";
    }
    out += result.suppressed.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

} // namespace cmpsim::analyze
