/**
 * @file
 * knob-registry: every CMPSIM_* environment knob the code reads must
 * be documented, and every documented knob must still exist — knob
 * drift fails the scan instead of rotting silently.
 *
 * Forward check: each `getenv("CMPSIM_*")` / `envUint64Or("CMPSIM_*")`
 * site in src/ or tools/ needs a matching `| `CMPSIM_*` |` row in
 * README.md's knob tables.
 *
 * Reverse check: each documented CMPSIM_* row must be read somewhere
 * in the analyzed src//tools/ files, or appear in the top-level
 * CMakeLists.txt (build-time knobs like CMPSIM_SANITIZE / CMPSIM_PROF
 * are CMake options, not getenv reads).
 *
 * Config-coverage check: knobs that land inside SystemConfig must be
 * guarded by SystemConfig::validate(), evidenced by a "config.<domain>"
 * ConfigError context string somewhere in the corpus. The knob->domain
 * map below is the one piece of checker-maintained knowledge: extend
 * it when a new env knob starts populating SystemConfig fields.
 */

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "tools/analyze/checker.h"

namespace cmpsim::analyze {

namespace {

struct KnobSite
{
    std::string knob;
    std::string file;
    int line = 0;
};

/** Env knobs that populate SystemConfig -> the validate() context
 *  prefix that must guard them. */
const std::map<std::string, std::string> &
configCoverage()
{
    static const std::map<std::string, std::string> m = {
        {"CMPSIM_DRAM", "config.dram"},
        {"CMPSIM_CPISTACK", "config.sampling"}, // cpi_stack x sampling
        {"CMPSIM_SAMPLING", "config.sampling"},
    };
    return m;
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

class KnobRegistryChecker final : public Checker
{
  public:
    const char *id() const override { return "knob-registry"; }
    const char *description() const override
    {
        return "CMPSIM_* env knobs vs README table and "
               "SystemConfig::validate coverage";
    }

    void checkCorpus(const Corpus &corpus, const AnalysisContext &ctx,
                     std::vector<Finding> &out) const override
    {
        if (ctx.readme.empty())
            return; // no registry to check against

        // Code side: knob string literals fed to the env accessors.
        std::vector<KnobSite> sites;
        std::set<std::string> read_knobs;
        std::set<std::string> string_pool; // every literal in corpus
        for (const SourceFile &f : corpus.files) {
            const bool scoped = f.under("src") || f.under("tools");
            const auto &t = f.tokens;
            for (std::size_t i = 0; i < t.size(); ++i) {
                if (t[i].kind == TokKind::String)
                    string_pool.insert(t[i].text);
                if (!scoped)
                    continue;
                if ((isIdent(t, i, "getenv") ||
                     isIdent(t, i, "envUint64Or")) &&
                    isPunct(t, i + 1, "(") && i + 2 < t.size() &&
                    t[i + 2].kind == TokKind::String &&
                    startsWith(t[i + 2].text, "CMPSIM_")) {
                    sites.push_back(
                        {t[i + 2].text, f.path, t[i + 2].line});
                    read_knobs.insert(t[i + 2].text);
                }
            }
        }

        // README side: `| `CMPSIM_X` |` table rows.
        std::map<std::string, int> documented; // knob -> line
        parseReadmeRows(ctx.readme, documented);

        for (const KnobSite &s : sites) {
            if (documented.count(s.knob) == 0) {
                out.push_back(
                    {id(), s.file, s.line,
                     "env knob " + s.knob +
                         " is read here but has no row in README's "
                         "environment-knob table"});
            }
        }

        for (const auto &[knob, line] : documented) {
            if (read_knobs.count(knob) != 0)
                continue;
            if (!ctx.cmake.empty() &&
                ctx.cmake.find(knob) != std::string::npos)
                continue; // build-time knob (CMake option)
            out.push_back(
                {id(), "README.md", line,
                 "documented knob " + knob +
                     " is read nowhere in the analyzed src//tools/ "
                     "files and is not a CMake build knob — stale "
                     "row or missing implementation"});
        }

        // Config coverage: a validate() context string must exist for
        // knobs that populate SystemConfig.
        for (const KnobSite &s : sites) {
            const auto it = configCoverage().find(s.knob);
            if (it == configCoverage().end())
                continue;
            bool covered = false;
            for (const std::string &lit : string_pool) {
                if (startsWith(lit, it->second.c_str())) {
                    covered = true;
                    break;
                }
            }
            if (!covered) {
                out.push_back(
                    {id(), s.file, s.line,
                     s.knob + " populates SystemConfig but no \"" +
                         it->second +
                         "*\" ConfigError context exists — "
                         "SystemConfig::validate() does not guard "
                         "it"});
            }
        }
    }

  private:
    static void
    parseReadmeRows(const std::string &readme,
                    std::map<std::string, int> &documented)
    {
        std::istringstream in(readme);
        std::string line;
        int lineno = 0;
        while (std::getline(in, line)) {
            ++lineno;
            std::size_t p = line.find_first_not_of(" \t");
            if (p == std::string::npos || line[p] != '|')
                continue;
            p = line.find_first_not_of(" \t", p + 1);
            if (p == std::string::npos || line[p] != '`')
                continue;
            const std::size_t end = line.find('`', p + 1);
            if (end == std::string::npos)
                continue;
            const std::string cell = line.substr(p + 1, end - p - 1);
            if (startsWith(cell, "CMPSIM_") &&
                documented.count(cell) == 0)
                documented[cell] = lineno;
        }
    }
};

} // namespace

std::unique_ptr<Checker>
makeKnobRegistryChecker()
{
    return std::make_unique<KnobRegistryChecker>();
}

} // namespace cmpsim::analyze
