/**
 * @file
 * fault-site: every fault-probe site string in src/ — the literals
 * fed to faultSite() / faultStallActive() — must be exercised by the
 * fault-injection tests and documented in DESIGN.md §8's failure
 * model. A probe nobody injects into is dead resilience machinery; a
 * probe the docs omit is an invisible CMPSIM_FAULT surface.
 */

#include <sstream>
#include <string>
#include <vector>

#include "tools/analyze/checker.h"

namespace cmpsim::analyze {

namespace {

struct SiteUse
{
    std::string site;
    std::string file;
    int line = 0;
};

/** Extract DESIGN.md's "## 8. ..." section; whole text if absent. */
std::string
designSection8(const std::string &design)
{
    std::istringstream in(design);
    std::string line, section;
    bool inside = false;
    while (std::getline(in, line)) {
        if (line.rfind("## ", 0) == 0) {
            if (inside)
                break;
            inside = line.rfind("## 8", 0) == 0;
        }
        if (inside) {
            section += line;
            section += '\n';
        }
    }
    return section.empty() ? design : section;
}

class FaultSiteChecker final : public Checker
{
  public:
    const char *id() const override { return "fault-site"; }
    const char *description() const override
    {
        return "fault-probe sites covered by fault-injection tests "
               "and DESIGN.md section 8";
    }

    void checkCorpus(const Corpus &corpus, const AnalysisContext &ctx,
                     std::vector<Finding> &out) const override
    {
        std::vector<SiteUse> sites;
        for (const SourceFile &f : corpus.files) {
            if (!f.under("src"))
                continue;
            const auto &t = f.tokens;
            for (std::size_t i = 0; i + 2 < t.size(); ++i) {
                if ((isIdent(t, i, "faultSite") ||
                     isIdent(t, i, "faultStallActive")) &&
                    isPunct(t, i + 1, "(") &&
                    t[i + 2].kind == TokKind::String &&
                    !t[i + 2].text.empty()) {
                    sites.push_back(
                        {t[i + 2].text, f.path, t[i + 2].line});
                }
            }
        }
        if (sites.empty())
            return;

        const std::string section8 =
            ctx.design.empty() ? std::string() : designSection8(ctx.design);

        for (const SiteUse &s : sites) {
            // A test exercises a site either by exact string ("l2.fill"
            // in a probe/context assertion) or as the head of a
            // CMPSIM_FAULT plan string ("l2.fill:50:p0").
            const bool injected =
                ctx.tests_blob.find("\"" + s.site + "\"") !=
                    std::string::npos ||
                ctx.tests_blob.find("\"" + s.site + ":") !=
                    std::string::npos;
            if (!ctx.tests_blob.empty() && !injected) {
                out.push_back(
                    {id(), s.file, s.line,
                     "fault site \"" + s.site +
                         "\" is probed here but never injected by any "
                         "test under tests/ — untested resilience "
                         "path"});
            }
            if (!section8.empty() &&
                section8.find(s.site) == std::string::npos) {
                out.push_back(
                    {id(), s.file, s.line,
                     "fault site \"" + s.site +
                         "\" is missing from DESIGN.md section "
                         "8's failure-model site list"});
            }
        }
    }
};

} // namespace

std::unique_ptr<Checker>
makeFaultSiteChecker()
{
    return std::make_unique<FaultSiteChecker>();
}

} // namespace cmpsim::analyze
