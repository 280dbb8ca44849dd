/**
 * @file
 * cmpsim_analyze — repo-specific static analysis for the simulator.
 *
 * Usage:
 *   cmpsim_analyze [--root DIR] [--json] [--list-checks] [PATH...]
 *
 * PATHs are directories or files relative to --root (default: the
 * current directory, walking up until README.md + src/ are found).
 * With no PATHs the default scan set is: src tools bench examples.
 *
 * Exit codes: 0 = clean, 1 = unsuppressed findings, 2 = usage or I/O
 * error. CI and tools/lint.sh rely on this contract.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/analyze/checker.h"
#include "tools/analyze/lexer.h"

namespace fs = std::filesystem;
using namespace cmpsim::analyze;

namespace {

bool
readFile(const fs::path &p, std::string &out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".h";
}

/** Locate the repo root: the nearest ancestor holding README.md and
 *  src/, so the tool works from build/ as well as the checkout. */
fs::path
findRoot()
{
    fs::path dir = fs::current_path();
    for (;;) {
        if (fs::exists(dir / "README.md") && fs::is_directory(dir / "src"))
            return dir;
        if (!dir.has_parent_path() || dir.parent_path() == dir)
            return fs::current_path();
        dir = dir.parent_path();
    }
}

std::string
relPath(const fs::path &p, const fs::path &root)
{
    std::error_code ec;
    const fs::path rel = fs::relative(p, root, ec);
    return (ec ? p : rel).generic_string();
}

int
usage(std::ostream &os, int code)
{
    os << "usage: cmpsim_analyze [--root DIR] [--json] [--list-checks]"
          " [PATH...]\n"
          "  PATHs default to: src tools bench examples\n";
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool list_checks = false;
    fs::path root;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--list-checks") {
            list_checks = true;
        } else if (arg == "--root") {
            if (++i >= argc)
                return usage(std::cerr, 2);
            root = argv[i];
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "cmpsim_analyze: unknown option " << arg << "\n";
            return usage(std::cerr, 2);
        } else {
            paths.push_back(arg);
        }
    }

    if (list_checks) {
        for (const auto &checker : allCheckers()) {
            std::cout << checker->id() << "\t" << checker->description()
                      << "\n";
        }
        std::cout << "suppression\tanalyze-ok comments must name a known "
                     "check, carry a reason and suppress a finding\n";
        return 0;
    }

    if (root.empty())
        root = findRoot();
    if (!fs::is_directory(root)) {
        std::cerr << "cmpsim_analyze: --root " << root.string()
                  << " is not a directory\n";
        return 2;
    }
    if (paths.empty())
        paths = {"src", "tools", "bench", "examples"};

    // Collect the scan set, sorted for stable output.
    std::vector<fs::path> files;
    for (const std::string &p : paths) {
        const fs::path abs = root / p;
        if (fs::is_directory(abs)) {
            for (const auto &entry :
                 fs::recursive_directory_iterator(abs)) {
                if (entry.is_regular_file() &&
                    isSourceFile(entry.path()))
                    files.push_back(entry.path());
            }
        } else if (fs::is_regular_file(abs)) {
            files.push_back(abs);
        } else {
            std::cerr << "cmpsim_analyze: no such path: " << p << "\n";
            return 2;
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    Corpus corpus;
    for (const fs::path &p : files) {
        std::string text;
        if (!readFile(p, text)) {
            std::cerr << "cmpsim_analyze: cannot read " << p.string()
                      << "\n";
            return 2;
        }
        corpus.files.push_back(lexSource(relPath(p, root), text));
    }

    AnalysisContext ctx;
    readFile(root / "README.md", ctx.readme);
    readFile(root / "CMakeLists.txt", ctx.cmake);

    const AnalysisResult result = runAnalysis(corpus, ctx);

    if (json) {
        std::cout << toJson(result);
    } else {
        for (const Finding &f : result.findings) {
            std::cout << f.file << ":" << f.line << ": [" << f.check
                      << "] " << f.message << "\n";
        }
        std::cout << "cmpsim_analyze: " << corpus.files.size()
                  << " files, " << result.findings.size()
                  << " finding(s), " << result.suppressed.size()
                  << " suppressed\n";
    }
    return result.findings.empty() ? 0 : 1;
}
