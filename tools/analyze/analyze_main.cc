/**
 * @file
 * cmpsim_analyze — repo-specific static analysis for the simulator.
 *
 * Usage:
 *   cmpsim_analyze [--root DIR] [--json] [--list-checks]
 *
 * Scans every .cc/.h file under src tools bench examples of the repo
 * at --root (default: the current directory, walking up until
 * README.md + src/ are found), with README.md and CMakeLists.txt as
 * the cross-check context. The scan set is fixed: the cross-file
 * checks are only right over the whole tree.
 *
 * Exit codes: 0 = clean, 1 = unsuppressed findings, 2 = usage or I/O
 * error. CI (tools/ci/analyze.sh) relies on this contract.
 */

#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "tools/analyze/checker.h"

namespace fs = std::filesystem;
using namespace cmpsim::analyze;

namespace {

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

int
usage(std::ostream &os, int code)
{
    os << "usage: cmpsim_analyze [--root DIR] [--json] [--list-checks]\n"
          "  scans src tools bench examples under the repo root\n";
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool list_checks = false;
    fs::path root;

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
        } else {
            std::cerr << "cmpsim_analyze: unexpected argument " << arg
                      << "\n";
            return usage(std::cerr, 2);
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

    AnalysisResult result;
    try {
        result = analyzeRepo(root.string());
    } catch (const std::exception &e) {
        std::cerr << "cmpsim_analyze: " << e.what() << "\n";
        return 2;
    }

    if (json) {
        std::cout << toJson(result);
    } else {
        for (const Finding &f : result.findings) {
            std::cout << f.file << ":" << f.line << ": [" << f.check
                      << "] " << f.message << "\n";
        }
        std::cout << "cmpsim_analyze: " << result.files_scanned
                  << " files, " << result.findings.size()
                  << " finding(s), " << result.suppressed.size()
                  << " suppressed\n";
    }
    return result.findings.empty() ? 0 : 1;
}
