#!/usr/bin/env bash
# The repo's own static analyzer (tools/analyze/, DESIGN.md §11), as
# CI's analyze job runs it:
#
#   tools/ci/analyze.sh <build-dir> [<artifact-dir>]
#
# <build-dir> is a configured tree with cmpsim_analyze and analyze_test
# built. Three steps, each with <build-dir>'s own analyzer: its test
# suite (per-checker snippets, suppression grammar, JSON schema, tree
# self-scan); the tree scan, which runs only when the suite passed and
# fails on any unsuppressed finding; and the machine-readable findings
# file analyze_findings.json, which is written either way. The file is
# left in <artifact-dir> when one is given, else in a temporary
# directory removed on exit. Exits non-zero when the suite or the scan
# failed.
set -o pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ] || [ ! -d "$1" ]; then
    echo "usage: $0 <build-dir> [<artifact-dir>]" >&2
    exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
build=$(cd "$1" && pwd)
if [ $# -eq 2 ]; then
    mkdir -p "$2" || exit 2
    work=$(cd "$2" && pwd)
else
    work=$(mktemp -d)
    trap 'rm -rf "$work"' EXIT
fi
cd "$here/../.."

status=0
echo "== Analyzer test suite"
"$here/ctest_suites.sh" "$build" '^analyze\.' || status=1

analyze="$build/tools/analyze/cmpsim_analyze"
if [ $status -eq 0 ]; then
    echo "== Scan the tree"
    "$analyze" --root . || status=1
fi

echo "== Machine-readable findings artifact"
"$analyze" --root . --json > "$work/analyze_findings.json" || true

[ $status -eq 0 ] && echo "analyze: all checks passed"
exit $status
